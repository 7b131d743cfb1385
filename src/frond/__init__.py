"""frond: appearance-based multi-leaf tracking, evaluation, and simulation.

A tracking-by-detection engine that matches per-frame leaf detections to
a memory bank of prototype embeddings, the metrics to score identity
persistence, triplet sampling for training the underlying embedding, a
synthetic scenario generator, and the text formats tying them together.

Import each name from the module that defines it, for example
``from frond.tracker import run_sequence``.  The package itself imports
nothing, so ``import frond`` loads no numpy and ``frond.cli`` can pin the
BLAS thread count before numpy loads.
"""

__version__ = "0.1.0"
