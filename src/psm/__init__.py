"""Point-set metrics and shape-space tools.

Public surface: distances (chamfer_distance, emd, emd_exact, emd_auction),
spatial index (KdTree), samplers (farthest_point_sample,
random_subsample, equalize), voxel path (splat, binarize, iou,
grid_unit_scale), losses (batch_loss, mon_loss), the mean-shape optimizer
(draw_shape, optimize_mean_shape, emit_plot), and text formats in psm.io.
"""

from . import errors
from .chamfer import KdTree, chamfer_distance
from .core import (DistanceResult, RandomSource, as_points, bounding_box,
                   validate)
from .emd import (Assignment, AuctionParams, emd, emd_auction, emd_exact)
from .losses import CandidateBundle, batch_loss, mon_loss
from .meanshape import (SgdConfig, ShapeDistributionSpec, draw_shape,
                        emit_plot, optimize_mean_shape, spec_from_dict)
from .sampling import equalize, farthest_point_sample, random_subsample
from .voxel import OccupancyGrid, binarize, grid_unit_scale, iou, splat

__version__ = "0.1.0"

__all__ = [
    "errors",
    "KdTree", "chamfer_distance",
    "DistanceResult", "RandomSource", "as_points", "bounding_box", "validate",
    "Assignment", "AuctionParams", "emd", "emd_auction", "emd_exact",
    "CandidateBundle", "batch_loss", "mon_loss",
    "SgdConfig", "ShapeDistributionSpec", "draw_shape", "emit_plot",
    "optimize_mean_shape", "spec_from_dict",
    "equalize", "farthest_point_sample", "random_subsample",
    "OccupancyGrid", "binarize", "grid_unit_scale", "iou", "splat",
    "__version__",
]
