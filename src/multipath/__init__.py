"""Tree-structured decoding with mass-threshold pruning, plus a two-stage
self-correction harness around it.

Layers, bottom up, each with the layers it imports:

- errors: the exception types.
- kernels: ranking and retention primitives.
- models: the autoregressive contract and reference models (kernels, errors);
  it reads no files.
- decoding: greedy, beam, sampling and multipath decoders (models, kernels).
- templates: the packaged prompt templates.
- tasks: datasets, answer extraction and verification (models, templates,
  errors).
- remote: model-server and judge wire adapters (models, errors).
- correction: feedback providers and stage-2 strategies (decoding, tasks,
  templates, models, errors).
- evaluation: metrics and the cost model (correction, tasks).
- oracle: brute-force cross-checks of the decoders (decoding, models,
  kernels).
- toydata: the digit-world fixtures (models, tasks, templates).
- cli: reproducible runs and the model-spec reader (correction, decoding,
  evaluation, models, tasks, errors); it loads remote only for a remote
  model spec or the judge provider, and oracle only for oracle-check.

Importing the package imports none of them. Each public name below is
loaded from its layer on first use, so ``import multipath.decoding`` loads
only decoding and the layers under it.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the layer that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "errors": ("ConfigError", "LoadError", "MultipathError", "ProtocolError", "TrainingError",
                   "TransportError", "VerificationError"),
        "models": ("ModelInterface", "NGramLM", "SequencePath", "StepDistribution", "TableLM", "Vocabulary",
                   "greedy_trap_lm", "perplexity", "sequence_logprob", "train_ngram"),
        "decoding": ("AdaptiveConfig", "BeamConfig", "DecodeResult", "MultipathConfig", "SamplerConfig",
                     "adaptive_decode", "beam_search", "greedy_decode", "multipath_decode", "nucleus_sample",
                     "select_min_ppl"),
        "tasks": ("Dataset", "Task", "extract_bracket_answer", "load_tasks", "verify"),
        "correction": ("Attempt", "FeedbackProvider", "GroundTruthProvider", "JudgeServiceProvider", "ProtocolRun",
                       "ScriptedJudgeProvider", "collect_feedback", "derive_seed", "indicator_correct",
                       "prompt_correct", "run_protocol", "run_stage1"),
        "evaluation": ("ChangeMatrix", "RunReport", "breakeven_regen_fraction", "cost_ratio", "reports_to_csv",
                       "score_run"),
        "remote": ("HttpModelClient", "JudgeClient"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Load a public name, or a submodule such as ``multipath.remote``, on first access."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    else:
        try:
            value = importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
