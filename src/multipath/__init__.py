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
- evaluation: metrics and the cost model (correction, tasks, models).
- oracle: brute-force cross-checks of the decoders and the wire-row parser
  (decoding, models, kernels, remote).
- toydata: the digit-world fixtures (models, tasks, templates).
- cli: reproducible runs and the model-spec reader (correction, decoding,
  evaluation, models, tasks, errors); it loads remote only for a remote
  model spec or the judge provider, and oracle only for oracle-check.

Importing the package imports none of them, and the package re-exports no
name: import each name from the layer that defines it
(``from multipath.correction import run_protocol``). So
``import multipath.decoding`` loads only decoding and the layers under it.
"""

__version__ = "0.1.0"
