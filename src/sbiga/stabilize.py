"""Two-mesh stabilized spaces.

Near the singular scaling center the fully refined basis produces huge
second-derivative entries and ruins the conditioning of fourth-order
systems.  The combined space keeps the fine-mesh functions whose support
avoids the ring of elements next to the center and replaces the rest by the
functions of a mesh refined in the radial direction only:

* coarse block: unrefined-zeta curve, radial indices j <= p,
* fine block: refined curve, radial indices j >= p+1 (0-based).

The radial knot vector is shared, so the two blocks select disjoint radial
index ranges: the union is a basis by construction, selected fine functions
vanish identically on the center ring, and the center functions come from
the coarse component.
"""

from .errors import CouplingError
from .space import PatchBlock, UncoupledSpace
from .coupling import build_coupled_space

__all__ = ["build_combined_space", "combined_uncoupled_space"]


def combined_uncoupled_space(base_domain, fine_segments, r):
    """Uncoupled fine/coarse block selection on the refined domain.

    ``base_domain`` carries the unrefined boundary curves (their zeta mesh
    is the coarse mesh); the fine mesh has ``fine_segments`` spans in both
    directions.  Returns (refined domain, UncoupledSpace).
    """
    p = base_domain.p
    fine = base_domain.with_segments(fine_segments, fine_segments, r)
    n2 = fine.patches[0].radial.n
    blocks = []
    for base_pa, fine_pa in zip(base_domain.patches, fine.patches):
        if base_pa.curve.kv == fine_pa.curve.kv:
            blocks.append([PatchBlock(fine_pa.curve, fine_pa.radial, 0, n2 - 1)])
            continue
        if n2 - 1 < p + 1:
            raise CouplingError(
                "combined space needs n2 >= p+2 fine radial functions",
                tag="spec-error",
            )
        coarse = PatchBlock(base_pa.curve, fine_pa.radial, 0, p)
        fine_blk = PatchBlock(fine_pa.curve, fine_pa.radial, p + 1, n2 - 1)
        blocks.append([coarse, fine_blk])
    return fine, UncoupledSpace(fine, blocks)


def build_combined_space(base_domain, fine_segments, r, tol_null=1e-10):
    """Combined-space analogue of :func:`sbiga.coupling.build_coupled_space`."""
    fine, uspace = combined_uncoupled_space(base_domain, fine_segments, r)
    return build_coupled_space(fine, tol_null=tol_null, uspace=uspace)
