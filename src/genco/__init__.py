"""genco: coding sequences into roster-generic branches of
cofinitely-branching trees, with replayable transcripts.

The library has five layers:

* `conditions` — finite symbolic tree conditions and their algebra
  (membership, restriction, intersection, two extension orders);
* `coding` — help sets, the fiber labelling, self-coding sets, and the
  decoder;
* `densesets` — dense families, the reachability rank engine, and the
  help-avoiding search `extend_in_A`;
* `generic` — the interleaved builder, transcripts, and the independent
  verifier;
* `cohenpair` — the companion pair coding over binary strings.

`cli` exposes the batch interface (`genco build/plain/decode/verify/
cohen/rank`).
"""

from .coding import (
    EventuallyPeriodicSeq,
    Evens,
    ExplicitPeriodic,
    HelpSet,
    Primes,
    SelfCode,
    decode,
    difference_prefix,
    eta,
    eta_fiber_element,
    help_set_from_config,
    recover_from_subset,
    selfcode_element,
    theta,
    theta_fiber,
)
from .cohenpair import (
    CohenDense,
    ContainsSet,
    EndsWithSet,
    MinLenSet,
    PairTranscript,
    build_pair,
    cohen_from_config,
    decode_pair,
    parse_pair_transcript,
    verify_pair,
    write_pair_transcript,
)
from .conditions import (
    FULL_TREE,
    ExtendsAnswer,
    FloorRule,
    HechlerCondition,
    contains,
    excluded_successors,
    extends,
    extends_A,
    meet,
    parse_condition,
    render_condition,
    restrict,
)
from .densesets import (
    DEFAULT_FUEL,
    DenseSet,
    DominateSet,
    PruningDenseSet,
    StemBasedDenseSet,
    StemHitsSet,
    StemLengthSet,
    StemPattern,
    UserStemsSet,
    code_step,
    dense_from_config,
    extend_in_A,
    rank_bounded,
)
from .errors import (
    ConfigError,
    DenseContractError,
    FuelExhausted,
    GencoError,
    MalformedCodeElement,
    MalformedTranscript,
    WitnessStemMismatch,
)
from .generic import (
    RunTranscript,
    VerificationReport,
    build_coded_generic,
    parse_transcript,
    verify_transcript,
    write_transcript,
)

__version__ = "0.1.0"
