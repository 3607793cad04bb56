"""The benchmark's workloads: generated config documents and references.

Each workload is one `nehari2d` command run on a config document that
the benchmark writes itself; README.md says why each was chosen.  The
workload seed reaches the program only as `solver.seed`.  References
were recorded on the seed commit at each workload's reference seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # nehari2d subcommand: solve-system or sweep
    reference_seed: int
    reference_energies: tuple[float, ...]   # one per CSV row
    body: str               # config lines except solver.seed and lambda1
    lambda1_share: float = 0.0   # lambda1 = share * conservative_mu1(grid)

    def config(self, seed: int, mu1: float) -> str:
        """The config document for one run.

        `mu1` is `conservative_mu1` on the workload's grid.  Set-up does
        not depend on lambda1, so set-up probes pass 0.
        """
        return (
            self.body
            + f"params.lambda1 = {self.lambda1_share * mu1:.17g}\n"
            + f"solver.seed = {seed}\n"
        )


_COMMON = """\
params.lambda2 = 0
params.p = 4
params.gamma = 1
solver.tol = 1e-8
"""

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="competitive-asym-31",
            command="solve-system",
            reference_seed=3,
            reference_energies=(245.49725018680923,),
            lambda1_share=0.05,
            # max_iter 300 instead of 2000: at 2000 one solve takes 25 to
            # 30 s, so a run holds a single solve.  At 300 every seed tried
            # (0 to 12) is polished to the reference state, and the bump
            # starts still land on the higher E = 257.826.
            body=_COMMON
            + """\
grid.nx = 31
grid.ny = 31
params.beta = -2
family1.kind = identity
family1.gamma = 1
family2.kind = example
family2.gamma = 1
solver.n_restarts = 1
solver.max_iter = 300
""",
        ),
        Workload(
            name="competitive-sym-31",
            command="solve-system",
            reference_seed=0,
            reference_energies=(419.04196964588505,),
            # max_iter 400 instead of 2000: with 2000 the random start
            # converges early for some seeds and runs to the cap for others,
            # so solve time is bimodal in the seed.  At 400 every sampled
            # seed runs to the cap and is then polished to the same state.
            body=_COMMON
            + """\
grid.nx = 31
grid.ny = 31
params.beta = -2
family1.kind = example
family1.gamma = 1
family2.kind = example
family2.gamma = 1
solver.n_restarts = 1
solver.max_iter = 400
""",
        ),
        Workload(
            name="cooperative-sweep-63",
            command="sweep",
            reference_seed=0,
            reference_energies=(
                28.211502798031212,
                13.99767179047562,
                6.609904124613859,
                3.0475267685051364,
            ),
            body=_COMMON
            + """\
grid.nx = 63
grid.ny = 63
params.beta = 5
family1.kind = example
family1.gamma = 1
family2.kind = example
family2.gamma = 1
solver.n_restarts = 0
solver.max_iter = 2000
sweep.betas = 5, 10, 20, 40
""",
        ),
    )
}
