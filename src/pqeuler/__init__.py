"""Exact verification toolkit for (p,q)-analogues of tangent and secant
numbers: permutation statistics, lattice-path models, continued fractions,
bijections, involutions, and closed summation formulas, all over exact
integer/rational arithmetic."""

from .algebra import (
    LaurentPoly,
    NotInvertibleError,
    TruncSeries,
    bracket,
    pq_bracket,
    q_bracket,
    q_factorial,
)
from .contfrac import (
    JFraction,
    PRESET_NAMES,
    SFraction,
    contract_even,
    contract_odd,
    preset,
)
from .harness import CheckReport, CHECK_IDS, check
from .lattice import (
    History,
    WeightSpec,
    enumerate_objects,
    weighted_sum,
)
from .maps import csz, csz_biwords, fv, fv_star, fz, invol_phi, invol_psi
from .permstat import (
    BACKEND,
    EnumerationCapError,
    FAMILIES,
    StatRecord,
    basic_stats,
    family_iter,
    stat_polynomial,
)
from .qeuler import (
    e_int,
    e_pq,
    e_pq_upto,
    e_q,
    e_star_q,
    egf_exc_fix,
    euler_table,
    hrz_series,
    parity_formula,
    q_parity_formula,
    rz_series,
)

__version__ = "0.1.0"
