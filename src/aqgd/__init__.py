"""Adaptively quantized gradient descent over a bit-limited channel,
with exact and model-free LQR policy optimization as the flagship
application."""

from .errors import (AqgdError, ConfigError, Divergence, NoConvergence,
                     NotSchurStable, Overflow, Unstabilizing)
from .linalg import solve_dare, solve_discrete_lyapunov, spectral_radius
from .lqr import (EstimatorConfig, LqrOracle, LtiSystem, calibrate_noise,
                  dare_optimum, estimate_gradient, estimate_local_smoothness,
                  lqr_cost, lqr_grad, random_stable_instance)
from .optimize import (GradOracle, RunTrace, default_alpha, potential,
                       rate_threshold_b, run)
from .problems import (PerturbedOracle, QuadraticProblem, SineBowl,
                       make_quadratic)
from .quantize import (CodeFrame, QuantizerSpec, build_net, decode, encode,
                       pack_bits, scalar_spec, unpack_bits)

__version__ = "0.1.0"
