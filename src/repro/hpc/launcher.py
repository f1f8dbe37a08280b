"""Launch-method cost models.

RADICAL-Pilot places executables on compute nodes through launch methods
(mpiexec/PRRTE, srun, ssh, fork).  Experiment 1 of the paper observes that
the time to *launch* service executables is nearly constant up to ~160
concurrent instances and then grows -- their preliminary analysis attributes
the growth to MPI startup time (§IV-B).  We model exactly that knee.

Each launcher exposes ``launch_time(n_concurrent, rng)``: the seconds it
takes one instance to be launched when ``n_concurrent`` instances are being
launched simultaneously.  A launcher's calibration is class constants (one
instance of each serves every platform, :data:`LAUNCHERS`); a test that
needs other values patches them.
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "LaunchMethod",
    "MpiexecLauncher",
    "SshLauncher",
    "ForkLauncher",
    "get_launcher",
    "LAUNCHERS",
]


class LaunchMethod:
    """Base class: a named launcher with a stochastic cost model, a
    subclass's ``launch_time(n_concurrent, rng)``: the seconds to launch one
    instance among *n_concurrent* peers."""

    name = "base"

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class MpiexecLauncher(LaunchMethod):
    """PRRTE/PMIx-style launcher with a concurrency knee.

    Cost model: a constant base (DVM placement + process spawn) with mild
    gaussian jitter, plus a superlinear penalty once concurrent launches
    exceed ``knee`` (MPI runtime startup contention -- wire-up traffic grows
    with the number of simultaneously spawning processes).

    Calibration: base ~2 s matches RP's per-task executor overhead on
    leadership platforms; the knee at 160 and the growth exponent reproduce
    the shape of Fig. 3 (launch flat through 160 instances, visibly growing
    at 320 and 640).
    """

    name = "MPIEXEC"
    base_s = 2.0
    jitter_s = 0.3
    knee = 160
    slope_s = 0.02
    exponent = 1.1

    def launch_time(self, n_concurrent: int, rng) -> float:
        if n_concurrent < 1:
            raise ValueError("n_concurrent must be >= 1")
        cost = max(0.1, rng.normal(self.base_s, self.jitter_s))
        if n_concurrent > self.knee:
            over = n_concurrent - self.knee
            cost += self.slope_s * over ** self.exponent
        return float(cost)


class SshLauncher(LaunchMethod):
    """SSH-based launcher: no MPI knee, but linear connection contention."""

    name = "SSH"
    base_s = 0.6
    jitter_s = 0.1
    per_peer_s = 0.004

    def launch_time(self, n_concurrent: int, rng) -> float:
        if n_concurrent < 1:
            raise ValueError("n_concurrent must be >= 1")
        cost = max(0.05, rng.normal(self.base_s, self.jitter_s))
        cost += self.per_peer_s * (n_concurrent - 1)
        return float(cost)


class ForkLauncher(LaunchMethod):
    """Local fork/exec: effectively flat and cheap."""

    name = "FORK"
    base_s = 0.05
    jitter_s = 0.01

    def launch_time(self, n_concurrent: int, rng) -> float:
        if n_concurrent < 1:
            raise ValueError("n_concurrent must be >= 1")
        return float(max(0.005, rng.normal(self.base_s, self.jitter_s)))


LAUNCHERS: Dict[str, LaunchMethod] = {
    "MPIEXEC": MpiexecLauncher(),
    "SSH": SshLauncher(),
    "FORK": ForkLauncher(),
}


def get_launcher(name: str) -> LaunchMethod:
    """Look up a launcher by (case-insensitive) name."""
    try:
        return LAUNCHERS[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown launch method {name!r}; known: {sorted(LAUNCHERS)}"
        ) from None
