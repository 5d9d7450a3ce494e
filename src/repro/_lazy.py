"""Names a package facade loads on first access (PEP 562).

A facade eagerly imports only what a packet-level full-system run
needs (the root facade ``repro``: nothing); its heavier names (the
simulator behind a cache replay, the flit engines and NumPy, the
service) are listed in a name -> module table and imported the first
time someone reads them::

    __getattr__, __dir__ = _lazy.lazy_names(globals(), {
        "ManyCoreSystem": ".system",
        "PROTOCOL_SPECS": ".coherence.protocol:PROTOCOLS",
    })

A loaded name is stored in the module's globals, so later reads are
plain attribute lookups.  Module ``__getattr__`` is not consulted for
the module's own global lookups: code inside the facade imports these
names locally.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Optional, Tuple


def lazy_names(
    namespace: Dict, table: Dict[str, Optional[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of the module whose globals
    are ``namespace``.  ``table`` maps a name to ``"module"`` (relative
    to the package; the attribute of the same name), ``"module:attr"``,
    or ``None`` for the package's submodule of that name."""
    package = namespace["__package__"]

    def __getattr__(name: str):
        try:
            where = table[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        if where is None:
            value = import_module(f".{name}", package)
        else:
            module, _, attr = where.partition(":")
            value = getattr(import_module(module, package), attr or name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
