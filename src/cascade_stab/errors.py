"""Exception types for cascade_stab.

The CLI maps these onto process exit codes: plant/input problems exit 1,
hypothesis-(H) problems exit 2, internal failures exit 3, and verification
failures exit 4.
"""


class CascadeStabError(Exception):
    """Base class for all cascade_stab errors."""


class PlantInputError(CascadeStabError):
    """User-supplied plant data violates a structural requirement."""


class CascadeViolation(PlantInputError):
    """Coupling matrix has a nonzero entry strictly below the first subdiagonal."""


class ControllabilityViolation(PlantInputError):
    """Some first-subdiagonal entry of the coupling matrix is zero."""


class NonPositiveDiffusion(PlantInputError):
    """A diffusion coefficient is zero or negative."""


class DegenerateBoundary(PlantInputError):
    """The boundary coefficients at x=L both vanish or have opposite signs."""


class BadShape(PlantInputError):
    """A control shape function is malformed or leaves [0, L]."""


class HypothesisHViolated(CascadeStabError):
    """The N x N input-projection matrix is singular or numerically unusable.

    The user must supply different shape functions or a different N.
    """


class InternalError(CascadeStabError):
    """Internal consistency failure; indicates a bug, not bad user input."""


class RootBracketingFailure(InternalError):
    """Bisection could not isolate the requested number of eigenvalue roots."""


class QuadratureNonConvergence(InternalError):
    """Projection of a callable failed.

    The callable returned a non-finite value, or adaptive panel refinement
    did not reach the tolerance within its level cap.
    """


class ResidualNonzero(InternalError):
    """A solved transform family does not zero the masked Sylvester residual."""

    def __init__(self, i, row, col, value):
        self.i = i
        self.row = row
        self.col = col
        self.value = value
        super().__init__(
            f"masked Sylvester residual {value:.3e} at family index {i}, "
            f"entry ({row},{col})"
        )


class PolePlacementSingular(InternalError):
    """Controllability matrix is singular; cannot occur for validated plants."""


class RiccatiFailure(InternalError):
    """Riccati solve for the direct baseline failed (pair not stabilizable)."""


class CertificateViolation(InternalError):
    """A Lyapunov certificate sign condition failed; indicates an upstream bug."""


class CertificateAtRoundingLevel(InternalError):
    """The coupling certificate's margins lie within rounding of zero.

    lambda_min(P), or minus the largest eigenvalue of the decay LMI, is at
    most m * eps * ||P||, so its sign is not certain.  Large gains (many
    equations, a fast decay rate) drive P this far.
    """


class FactorizationAtRoundingLevel(InternalError):
    """Bmat K misses blockdiag-rows(Kbar) by more than `verify` accepts.

    Near cond(Bmat) = 1e9 the gains K are so large that storing them in
    double already costs about the bound; the wide actuator family reaches
    it between N = 100 and N = 120.
    """


class CsvHelperFailed(InternalError):
    """The forked process that formats part of the CSV files stopped early."""


class ZeroNorm(CascadeStabError):
    """Trajectory norm reached numerical zero over the whole fit window."""
