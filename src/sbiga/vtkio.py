"""Legacy-VTK structured-grid export of solution fields.

One plain-text file per patch (suffix _p<k>.vtk) on a (zeta, xi) lattice
that excludes xi = 0, with point data u, m11, m22, m12.
"""

import numpy as np

from .plate import evaluate, bending_moments

__all__ = ["export_field"]


def export_field(solution, sample_grid, path):
    """Write per-patch VTK files; returns the list of file paths."""
    m, n = int(sample_grid[0]), int(sample_grid[1])
    domain = solution.space.domain
    stem = path[:-4] if path.endswith(".vtk") else path
    zs = np.linspace(0.0, 1.0, m)
    xs = np.linspace(0.0, 1.0, n + 1)[1:]
    paths = []
    for k, patch in enumerate(domain.patches):
        pts = [(k, z, x) for x in xs for z in zs]
        u = evaluate(solution, pts, nders=0)
        m11, m22, m12 = bending_moments(solution, pts)
        fname = f"{stem}_p{k}.vtk"
        with open(fname, "w") as fh:
            fh.write("# vtk DataFile Version 3.0\n")
            fh.write(f"sbiga patch {k}\n")
            fh.write("ASCII\nDATASET STRUCTURED_GRID\n")
            fh.write(f"DIMENSIONS {m} {n} 1\n")
            fh.write(f"POINTS {m * n} double\n")
            for x in xs:
                phys = patch.map(zs, np.full_like(zs, x))
                for row in phys:
                    fh.write(f"{float(row[0])!r} {float(row[1])!r} 0.0\n")
            fh.write(f"POINT_DATA {m * n}\n")
            for name, vals in (("u", u), ("m11", m11), ("m22", m22), ("m12", m12)):
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                for v in vals:
                    fh.write(f"{float(v)!r}\n")
        paths.append(fname)
    return paths

