"""Three-stream real-time action recognition at desk scale.

Subsystems:

* :mod:`rtar.nn` - dense-tensor layer math with forward/backward passes
* :mod:`rtar.mediaio` - bit-exact PPM/PGM, ``.flo`` and clip-directory I/O
* :mod:`rtar.preprocess` - frame sampling, bilinear resize, pyramidal
  Horn-Schunck optical flow, HOG descriptors and renderings
* :mod:`rtar.network` - the three-stream classifier with interleaved
  concatenation fusion, training and evaluation
* :mod:`rtar.runtime` - circular frame buffer, majority-vote polling,
  erroneous-action detection, offline and live pipelines
* :mod:`rtar.dataset` / :mod:`rtar.synth` - naming/split conventions,
  cache precomputation, the synthetic fine-grained-action generator and
  the fusion ablation run on it
* :mod:`rtar.cli` - the ``rtar`` command
"""

__version__ = "0.1.0"
