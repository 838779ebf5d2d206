"""Exact twisted Alexander polynomials as algebraic fibring obstructions.

Every record type of the package is a plain class with ``__slots__`` and an
``__init__``, not a dataclass.  The commands run as many short processes,
and there the import counts: `dataclasses` pulls in `inspect`, `ast` and
`dis`, and generating the methods of each decorated class costs more again,
together more than a small command's algebra.  A record defines
``__eq__`` and ``__hash__``, over all of its fields, only where records are
compared or used as keys (`Word`, `Presentation`, `Character`);
a quotient's image is an `ImageAction`, not a group, and it and an
`AlexanderReport` are read through `label()` and `as_dict()`, never compared.
Modules that only one path needs, such as the process pool of
``scan --jobs``, are imported on that path.
"""

__version__ = "0.1.0"

from .words import (  # noqa: E402,F401
    Character,
    ParseError,
    Presentation,
    Word,
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
from .reidschreier import SubgroupPresentation, rewrite_subgroup  # noqa: F401
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
    scan,
)
from .fixtures import load_fixture  # noqa: F401
