"""Dense disparity estimation from multiscopic image sets.

One center view plus up to four axis-aligned views at equal baseline share a
single disparity map; this package builds per-view matching cost volumes,
fuses them (mean / min / occlusion-aware heuristic / learned 3-D CNN), and
extracts disparity by winner-take-all or alpha-expansion graph cuts with an
explicit occlusion label.  Includes a synthetic scene generator with exact
ground truth and Middlebury-style evaluation metrics.
"""

from .errors import (
    FormatError,
    InputError,
    MultiscopicError,
    SpecError,
    TrainingError,
    UnsupportedError,
)
from .imagery import (
    INVALID_DISPARITY,
    ColorImage,
    Direction,
    DisparityMap,
    Image,
    MultiscopicSet,
    colorize_jet,
    read_image,
    to_grayscale,
    write_image,
)
from .costvol import (
    LARGE_COST,
    BlockMatchParams,
    CostVolume,
    bt_cost_volume,
    load_volume,
    multiscopic_slices,
    multiscopic_volumes,
    sad_cost_volume,
    save_volume,
)
from .fusion import FusionStrategy, fuse, fuse_slices, wta_disparity, wta_slices
from .maxflow import FlowGraph, max_flow
from .graphcut import (
    OCCLUDED,
    GcParams,
    expansion_move,
    gc_energy,
    multiscopic_gc,
    occlusion_pass,
)
from .net import (
    FusionNet,
    TrainConfig,
    backward,
    forward,
    grad_check,
    init_network,
    load_net,
    save_net,
    smooth_l1,
    train,
)
from .synthscene import (
    DatasetRanges,
    SceneLayer,
    SceneSpec,
    generate_dataset,
    generate_scene,
    load_scene,
    sample_spec,
)
from .metrics import MetricsReport, evaluate, evaluate_dataset

__version__ = "0.1.0"
