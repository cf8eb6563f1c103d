"""buslab: low-weight differential bus encoding.

Codecs that minimize bus line transitions (optimal pulse-position mapping,
DBI, PPM0, syndrome/coset encoders), exact closed-form performance figures,
and a reproducible Monte Carlo harness, plus the `buslab` CLI.
"""
from .analytics import (
    d_max,
    d_min,
    d_opt,
    d_unc,
    encoding_cost,
    energy_saving,
    uncoded_distance_pmf,
)
from .codecs import (
    BusState,
    Codec,
    CodecSpec,
    CorruptedWordError,
    Family,
    LinearCode,
    coset_spec,
    coset_spec_for,
    dbi_spec,
    decode,
    encode,
    make_codec,
    make_golay23,
    make_hamming,
    make_repetition,
    min_distance,
    optimal_spec,
    ppm0_spec,
    uncoded_spec,
)
from .combinatorics import (
    BinomialTable,
    Word,
)
from .simulator import (
    ConvergenceReport,
    ExactAverageReport,
    TraceConfig,
    TransitionStats,
    convergence_check,
    exact_average_distance,
    run_trace,
)

__version__ = "0.1.0"
