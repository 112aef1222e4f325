"""boltzlab: a numerical laboratory for the constant-kernel Boltzmann equation.

Operators (collision gain/loss, free transport), weighted mixed norms, and
the explicit tube/cavity constructions used to probe well- and ill-posedness
scaling laws at desk scale.

The package attribute `collision` is the operator Q = Q+ - Q-, not the
submodule of the same name, so `import boltzlab.collision as C` binds the
function.  Reach the module with
`importlib.import_module("boltzlab.collision")`.
"""

import types as _types

from boltzlab.util import apply_thread_cap

apply_thread_cap()

from boltzlab.grids import (  # noqa: E402
    FieldTag,
    GridSpec,
    PhaseField,
    ScalingTransform,
    Storage,
    Trajectory,
    VSlicedField,
    free_transport,
    gaussian_oracle,
    rescale,
    transform,
)
from boltzlab.collision import (  # noqa: E402
    CollisionConfig,
    Interpolation,
    SphereQuadrature,
    collision,
    gain_term_direct,
    gain_term_spectral,
    loss_term,
    maxwellian,
    moments,
    post_collision,
    spatial_density,
)
from boltzlab.bump import (  # noqa: E402
    BumpProfile,
    TimeCutoff,
    default_bump,
    default_cutoff,
)
from boltzlab.ansatz import (  # noqa: E402
    AnsatzParams,
    BetaCache,
    TubeFamily,
    beta_eval,
    bilinear_factors,
    converged_beta_cache,
    f_a_eval,
    f_a_to_grid,
    f_b_eval,
    f_b_to_grid,
    f_err_terms,
    f_r_eval,
    f_r_to_grid,
    rho_b_eval,
    rho_b_radial,
    rho_r_eval,
    sphere_grid,
)
from boltzlab.sharpness import (  # noqa: E402
    QuadratureBudgetError,
    SharpnessFunctions,
    sharpness_functions,
    sharpness_integral,
)

#: every public name bound above by the imports, the submodules left out
__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _types.ModuleType)]

__version__ = "0.1.0"
