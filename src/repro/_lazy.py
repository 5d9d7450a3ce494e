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

Loading a module stores every name the table takes from it in the
facade's globals, so later reads are plain attribute lookups, and a
facade whose module was loaded through one name holds all its names
(``vars(facade)`` and tracers patching the facade see them).  Module
``__getattr__`` is not consulted for the module's own global lookups:
code inside the facade imports these names locally.
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
    #: module -> the (name, attribute) pairs the table takes from it
    by_module: Dict[str, List[Tuple[str, str]]] = {}
    for name, where in table.items():
        if where is not None:
            module, _, attr = where.partition(":")
            by_module.setdefault(module, []).append((name, attr or name))

    def __getattr__(name: str):
        try:
            where = table[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        if where is None:
            namespace[name] = import_module(f".{name}", package)
            return namespace[name]
        module = where.partition(":")[0]
        loaded = import_module(module, package)
        for bound, attr in by_module[module]:
            namespace[bound] = getattr(loaded, attr)
        return namespace[name]

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
