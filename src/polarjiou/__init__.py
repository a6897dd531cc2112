"""Polar-discretized IoU loss for oriented boxes.

The core idea: reduce each rotated box to the radial profile of its inscribed
ellipse on a shared angle grid, and score overlap as the ratio of the discrete
intersection and union area integrals.  Around that sit exact-geometry and
Monte-Carlo oracles, an anchor-free training-target codec, grouped channel
weighting for multi-scale features, and desk-scale fitting/sweep harnesses.
"""

from .attention import (
    FeatureStack,
    GroupWeights,
    apply_weights,
    global_pool_embed,
    group_softmax,
)
from .boxes import (
    CenterOffset,
    CornerQuad,
    OrientedBox,
    canonicalize,
    corner_set_distance,
    corners_to_box,
    decode_corners,
    encode_offset,
    load_dota_annotations,
    parse_dota_record,
    phi_distance,
    signed_area,
)
from .codec import (
    EncodedTargets,
    HeatmapTarget,
    Peak,
    decode_detections,
    encode_decode_roundtrip,
    encode_targets,
    extract_peaks,
    focal_loss,
    gaussian_sigma,
    render_heatmap,
    smooth_l1,
    total_loss,
)
from .fitting import (
    FitStep,
    FitTrace,
    SweepRecord,
    default_fit_suite,
    deviation_sweep,
    fit_box,
    run_fit_suite,
)
from .loss import (
    DEFAULT_N,
    JiouGradient,
    JiouValue,
    batch_jiou,
    jiou_bar,
    jiou_gradient,
)
from .oracle import (
    Detection,
    exact_rect_iou,
    mc_ellipse_iou,
    mc_rect_iou,
    rotated_nms,
)
from .polar import grid_angles, radius_at
from . import errors

__all__ = [
    "CenterOffset",
    "CornerQuad",
    "DEFAULT_N",
    "Detection",
    "EncodedTargets",
    "FeatureStack",
    "FitStep",
    "FitTrace",
    "GroupWeights",
    "HeatmapTarget",
    "JiouGradient",
    "JiouValue",
    "OrientedBox",
    "Peak",
    "SweepRecord",
    "apply_weights",
    "batch_jiou",
    "canonicalize",
    "corner_set_distance",
    "corners_to_box",
    "decode_corners",
    "decode_detections",
    "default_fit_suite",
    "deviation_sweep",
    "encode_decode_roundtrip",
    "encode_offset",
    "encode_targets",
    "errors",
    "exact_rect_iou",
    "extract_peaks",
    "fit_box",
    "focal_loss",
    "gaussian_sigma",
    "global_pool_embed",
    "grid_angles",
    "group_softmax",
    "jiou_bar",
    "jiou_gradient",
    "load_dota_annotations",
    "mc_ellipse_iou",
    "mc_rect_iou",
    "parse_dota_record",
    "phi_distance",
    "radius_at",
    "render_heatmap",
    "rotated_nms",
    "run_fit_suite",
    "signed_area",
    "smooth_l1",
    "total_loss",
]
