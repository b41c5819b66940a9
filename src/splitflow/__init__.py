"""Accelerated forward-backward and Douglas-Rachford splitting dynamics.

Composite problems and their prox oracles live in :mod:`splitflow.problems`,
the FB/DR envelopes in :mod:`splitflow.envelopes`, the continuous flows and
discrete baselines in :mod:`splitflow.dynamics`, Lyapunov and rate
certification in :mod:`splitflow.analysis`, and benchmark generation plus
the CLI in :mod:`splitflow.harness` / :mod:`splitflow.cli`.
"""

from .analysis import (CertificateReport, LyapunovSpec, certify_exponential,
                       certify_sublinear, check_conditions,
                       check_envelope_inequalities, check_lyapunov_decay,
                       h_curve, lyapunov_value, make_lyapunov_spec,
                       solve_reference)
from .dynamics import (ConstantSchedule, ConvexSchedule, DynamicsSpec,
                       Trajectory, integrate, run_discrete,
                       schedule_strongly_convex, vector_field)
from .envelopes import (EnvelopeConstants, EnvelopeEval, dr_envelope,
                        envelope_constants, fb_envelope, fb_envelope_value,
                        forward_prox_point, generalized_gradient)
from .exceptions import (IntegrationFailure, NeedsReferenceError,
                         ParameterDomainError, UnsupportedOperationError,
                         WindowTooLateError)
from .harness import (BenchmarkConfig, BenchmarkReport, LambdaRule,
                      gen_boxqp, gen_lasso, gen_logistic, run_benchmark)
from .problems import (BoxIndicator, CompositeProblem, L1, LogisticRidge,
                       NonsmoothFunction, Quadratic, SmoothFunction,
                       load_problem, problem_from_dict, problem_to_dict,
                       save_problem)

__version__ = "0.1.0"
