"""Highway driving simulation with camera/cloud target identification.

Subsystems:
  geometry    along-road pinhole camera, batched body projection, box IoU
  scene       deterministic multi-lane traffic simulation and ego policies
  sensing     synthetic truth boxes, depth rasters, detector noise emulation
  twinlink    simulated vehicle-to-cloud state channel
  fusion      depth evaluation and anchor/distance target matching
  prediction  lane-change labeling, MLP classifier, prediction filters
  evaluation  identification accuracy, TTC/accel/jerk safety metrics
  pipeline    end-to-end runners used by the command-line interface
  config      JSON config schema derived from the dataclasses, validation
  cli         batch entry points (simulate, fuse-eval, train, ...) and the
              writers of every CSV file and the config echo
"""

__version__ = "0.1.0"
