"""Tree-structured decoding with mass-threshold pruning, plus a two-stage
self-correction harness around it.

Layers, bottom up: kernels (ranking and retention primitives), models (the
autoregressive contract and reference models), decoding (greedy, beam,
sampling, multipath), correction (feedback providers and stage-2
strategies), evaluation (metrics and the cost model), remote (model-server
and judge wire adapters), cli (reproducible runs).
"""

from .errors import (
    ConfigError,
    LoadError,
    MultipathError,
    ProtocolError,
    TrainingError,
    TransportError,
    VerificationError,
)
from .models import (
    ModelInterface,
    NGramLM,
    SequencePath,
    StepDistribution,
    TableLM,
    Vocabulary,
    greedy_trap_lm,
    perplexity,
    sequence_logprob,
    train_ngram,
)
from .decoding import (
    AdaptiveConfig,
    BeamConfig,
    DecodeResult,
    MultipathConfig,
    SamplerConfig,
    adaptive_decode,
    beam_search,
    greedy_decode,
    multipath_decode,
    nucleus_sample,
    select_min_ppl,
)
from .tasks import (
    Dataset,
    Task,
    extract_bracket_answer,
    load_tasks,
    verify,
)
from .correction import (
    Attempt,
    FeedbackProvider,
    GroundTruthProvider,
    JudgeServiceProvider,
    ProtocolRun,
    ScriptedJudgeProvider,
    collect_feedback,
    derive_seed,
    indicator_correct,
    prompt_correct,
    run_protocol,
    run_stage1,
)
from .evaluation import (
    ChangeMatrix,
    RunReport,
    breakeven_regen_fraction,
    cost_ratio,
    reports_to_csv,
    score_run,
)
from .remote import HttpModelClient, JudgeClient

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "Attempt",
    "BeamConfig",
    "ChangeMatrix",
    "ConfigError",
    "Dataset",
    "DecodeResult",
    "FeedbackProvider",
    "GroundTruthProvider",
    "HttpModelClient",
    "JudgeClient",
    "JudgeServiceProvider",
    "LoadError",
    "ModelInterface",
    "MultipathConfig",
    "MultipathError",
    "NGramLM",
    "ProtocolError",
    "ProtocolRun",
    "RunReport",
    "SamplerConfig",
    "ScriptedJudgeProvider",
    "SequencePath",
    "StepDistribution",
    "TableLM",
    "Task",
    "TrainingError",
    "TransportError",
    "VerificationError",
    "Vocabulary",
    "adaptive_decode",
    "beam_search",
    "breakeven_regen_fraction",
    "collect_feedback",
    "cost_ratio",
    "derive_seed",
    "extract_bracket_answer",
    "greedy_decode",
    "greedy_trap_lm",
    "indicator_correct",
    "load_tasks",
    "multipath_decode",
    "nucleus_sample",
    "perplexity",
    "prompt_correct",
    "reports_to_csv",
    "run_protocol",
    "run_stage1",
    "score_run",
    "select_min_ppl",
    "sequence_logprob",
    "train_ngram",
    "verify",
]
