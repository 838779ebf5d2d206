"""Exact twisted Alexander polynomials as algebraic fibring obstructions."""

__version__ = "0.1.0"

from .words import (  # noqa: E402,F401
    Character,
    ParseError,
    Presentation,
    Word,
    direct_product,
    parse_character,
    parse_presentation,
    render_character,
    render_presentation,
    validate_character,
)
from .polyalg import (  # noqa: F401
    CoefficientField,
    LaurentPoly,
    NotInSpan,
    SnfResult,
    SparseMatrix,
    diagonal_form,
    rank_lower_bound,
    rank_over_fraction_field,
)
from .quotients import (  # noqa: F401
    FiniteGroup,
    FiniteQuotient,
    build_catalog,
    cyclic_group,
    enumerate_homs,
    image_closure,
    kernel_key,
    load_table_group,
    make_quotient,
    regular_representation,
    symmetric_group,
    trivial_group,
    trivial_quotient,
)
from .foxcalc import (  # noqa: F401
    CONVENTION,
    Representation,
    build_representation,
    fox_images,
)
from .reidschreier import CosetAction, SubgroupPresentation, coset_action, rewrite_subgroup  # noqa: F401
from .alexander import (  # noqa: F401
    AlexanderReport,
    IntegralChain,
    InternalCheckError,
    TwistedChain,
    chain_reports,
    full_report,
    h0_report,
    h1_vanishing,
    integral_chain,
)
from .fibring import (  # noqa: F401
    FibringVerdict,
    ScanConfig,
    emit_report,
    product_vanishing_test,
    scan,
)
from .fixtures import load_fixture  # noqa: F401
