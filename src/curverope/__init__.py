"""Depth-aware rotary positional encoding along curved projected ray paths
for unified central cameras, with its supervision and scheduling machinery."""

from .attention import AttentionParams, TokenBatch, attention_forward
from .camera import Ray, RigidTransform, UcmCamera, relative_transform, unproject_points
from .head import HeadParams, head_backward, head_forward, head_init
from .phasor import (
    ProjectedPath,
    RadialInterval,
    breakpoints,
    projected_path,
    token_paths,
    token_rays,
)
from .rope import FrequencyPlan, apply_coefficients, make_frequency_plan
from .scene import SceneSpec, make_layer_features, make_trajectory, render_radial_map
from .supervision import (
    RadialMap,
    TokenTargets,
    near_distance_stat,
    normalize_and_pool,
    radial_loss,
    uncertainty_scale,
    validity_mask,
)
from .teacher_mix import (
    MixSchedule,
    effective_interval,
    external_override,
    sample_mask,
    substitution_probability,
)

__version__ = "0.1.0"
