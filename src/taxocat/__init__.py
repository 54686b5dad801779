"""taxocat: zero-shot hierarchical multi-label classification over large, dynamic taxonomies.

Pipeline: a bi-encoder prunes the label taxonomy down to the top-k most
similar leaves per document, then an LLM-driven strategy (traversal,
one-pass selection, rerank, or pointwise selection) picks the final leaf
labels, followed by post-processing and an evaluation harness for SME
judgments.
"""

import os

# Ranking multiplies small blocks; a second OpenBLAS thread spins between
# them and costs more CPU than it saves. Set before numpy is first imported;
# a value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
