"""Rule families for the ``repro`` static-analysis pass.

Importing this package registers every rule with
:mod:`repro.devtools.registry`:

* ``REP001`` — determinism (:mod:`.determinism`)
* ``REP002`` — unit-suffix consistency (:mod:`.units`)
* ``REP003`` — public-API hygiene (:mod:`.api`)
* ``REP004`` — mutability hazards (:mod:`.mutability`)

Project-scope rules (whole-program, via :mod:`repro.devtools.xref`):

* ``REP101`` — interprocedural seed-flow (:mod:`.seedflow`)
* ``REP102`` — registry drift (:mod:`.drift`)
* ``REP103`` — call-site unit consistency (:mod:`.callunits`)
* ``REP104`` — stale exports (:mod:`.exports`)
"""

from repro.devtools.rules import (
    api,
    callunits,
    determinism,
    drift,
    exports,
    mutability,
    seedflow,
    units,
)

__all__ = [
    "api",
    "callunits",
    "determinism",
    "drift",
    "exports",
    "mutability",
    "seedflow",
    "units",
]
