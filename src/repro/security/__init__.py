"""Attack simulations from paper section 6.1.

* :mod:`~repro.security.malformed_iblt` -- the endless-decode-loop IBLT
  and the halt-on-double-decode mitigation.
* :mod:`~repro.security.collision_attack` -- manufactured short-ID
  collisions: always fatal to XThin / Compact Blocks, survived by
  Graphene except with probability ``f_S * f_R``.
"""

from repro.security.malformed_iblt import make_malformed_iblt
from repro.security.collision_attack import (
    CollisionAttackResult,
    run_collision_attack,
)

__all__ = [
    "make_malformed_iblt",
    "CollisionAttackResult",
    "run_collision_attack",
]
