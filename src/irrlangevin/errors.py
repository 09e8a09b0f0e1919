"""Exception types shared across the package."""


class DivergenceError(RuntimeError):
    """A simulated chain left the finite range (overflow from a steep drift).

    Carries the step index at which the first non-finite coordinate appeared,
    the seed of the offending chain, and the last finite state.
    """

    def __init__(self, step_index, seed, state):
        self.step_index = step_index
        self.seed = seed
        self.state = state
        super().__init__(f"trajectory diverged at step {step_index} "
                         f"(seed {seed}); last finite state {state}")


class DiscretizationDefectError(RuntimeError):
    """A discretized operator violates a structural requirement.

    Raised e.g. when the energy operator restricted to the mean-zero subspace
    is not positive definite, which signals a defective grid rather than a
    recoverable numerical condition.
    """
