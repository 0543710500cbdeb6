"""Collapse a ground model onto orbit cells.

Ground overcomplete coordinates are grouped into cells: per variable orbit a
cell for each value, per edge orbit a cell for the equal-value coordinates
(0,0) and (1,1), per arc orbit one cell holding the opposite-value
coordinates, and one cell per factor-assignment orbit. The lifted parameters
add the ground parameters within each cell, which requires the ground
parameters to be constant on every cell; the lift map averages a ground
vector over cells and the unlift map broadcasts a lifted vector back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Model, OvercompleteLayout
from .symmetry import OrbitBundle


class LiftError(ValueError):
    """Orbits inconsistent with the model or mismatched dimensions."""


@dataclass(frozen=True, eq=False)
class CellIndex:
    """Map between ground overcomplete coordinates and lifted cells.

    rho[i] is the cell of ground coordinate i (positions follow the model's
    OvercompleteLayout); cells[c] lists the ground coordinates of cell c.
    labels[c] describes the cell: ("node", orbit, value), ("edge", orbit,
    "00" | "11"), ("arc", orbit), or ("factor", orbit).
    """

    layout: OvercompleteLayout
    rho: np.ndarray
    cells: tuple
    labels: tuple

    @property
    def num_cells(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class NodeOrbitInfo:
    rep: int
    cell0: int
    cell1: int


@dataclass(frozen=True)
class EdgeOrbitInfo:
    rep: tuple
    cell00: int
    cell11: int
    cell_uv: int  # cell of the (0,1) coordinate on the representative edge
    cell_vu: int  # cell of the (1,0) coordinate; equals cell_uv when self-paired


@dataclass(frozen=True)
class FactorOrbitInfo:
    rep: tuple
    cell: int


@dataclass(eq=False)
class LiftedModel:
    """A ground model with its orbit cells, lifted parameters and symmetry source."""

    model: Model
    bundle: OrbitBundle
    index: CellIndex
    node_info: tuple
    edge_info: tuple
    factor_info: tuple
    theta_bar: np.ndarray
    symmetries: object

    @property
    def num_cells(self) -> int:
        return self.index.num_cells


def build_lifted_model(model: Model, symmetries) -> LiftedModel:
    """Assemble cells, lifted parameters and orbit tables from a symmetry source.

    The source's bundle() gives the orbits, and the source is kept on the
    result for the stabilizer queries of lifted cycle separation.
    """
    if not hasattr(symmetries, "bundle"):
        raise LiftError("expected a symmetry source with a bundle() method")
    bundle = symmetries.bundle()
    layout = OvercompleteLayout(model)
    if bundle.vars.elements != tuple(range(model.num_vars)):
        raise LiftError("variable orbits do not cover this model's variables")
    if bundle.edges.elements != tuple(sorted(layout.edges)):
        raise LiftError("edge orbits do not cover this model's edges")

    nv = bundle.vars.num_cells
    ne = bundle.edges.num_cells
    na = bundle.arcs.num_cells
    edge_base = 2 * nv
    arc_base = edge_base + 2 * ne
    factor_base = arc_base + na
    num_cells = factor_base + bundle.factor_assignments.num_cells

    labels = []
    for k in range(nv):
        labels.append(("node", k, 0))
        labels.append(("node", k, 1))
    for k in range(ne):
        labels.append(("edge", k, "00"))
        labels.append(("edge", k, "11"))
    for k in range(na):
        labels.append(("arc", k))
    for k in range(bundle.factor_assignments.num_cells):
        labels.append(("factor", k))

    rho = np.zeros(layout.size, dtype=np.int64)
    for i, key in enumerate(layout.keys):
        if key[0] == "node":
            _, v, t = key
            rho[i] = 2 * bundle.vars.cell_of[v] + t
        elif key[0] == "edge":
            _, u, v, a, b = key
            if a == b:
                rho[i] = edge_base + 2 * bundle.edges.cell_of[(u, v)] + a
            elif (a, b) == (0, 1):
                rho[i] = arc_base + bundle.arcs.cell_of[(u, v)]
            else:
                rho[i] = arc_base + bundle.arcs.cell_of[(v, u)]
        else:
            _, j, a = key
            rho[i] = factor_base + bundle.factor_assignments.cell_of[(j, a)]

    cells = [[] for _ in range(num_cells)]
    for i, c in enumerate(rho):
        cells[int(c)].append(i)
    for c, members in enumerate(cells):
        if not members:
            raise LiftError("cell %d (%r) has no ground coordinates" % (c, labels[c]))
    cells = tuple(tuple(members) for members in cells)

    theta = layout.theta_vector()
    theta_bar = np.zeros(num_cells)
    for c, members in enumerate(cells):
        vals = theta[list(members)]
        if float(vals.max() - vals.min()) > 1e-12:
            lo = members[int(vals.argmin())]
            hi = members[int(vals.argmax())]
            raise LiftError(
                "cell not theta-constant: coordinates %r and %r carry %r and %r"
                % (layout.keys[lo], layout.keys[hi], float(theta[lo]), float(theta[hi]))
            )
        theta_bar[c] = float(vals.sum())

    index = CellIndex(layout=layout, rho=rho, cells=cells, labels=tuple(labels))

    node_info = tuple(
        NodeOrbitInfo(rep=rep, cell0=2 * k, cell1=2 * k + 1)
        for k, rep in enumerate(bundle.vars.reps)
    )
    edge_info = tuple(
        EdgeOrbitInfo(
            rep=(u, v),
            cell00=edge_base + 2 * k,
            cell11=edge_base + 2 * k + 1,
            cell_uv=arc_base + bundle.arcs.cell_of[(u, v)],
            cell_vu=arc_base + bundle.arcs.cell_of[(v, u)],
        )
        for k, (u, v) in enumerate(bundle.edges.reps)
    )
    factor_info = tuple(
        FactorOrbitInfo(rep=rep, cell=factor_base + k)
        for k, rep in enumerate(bundle.factor_assignments.reps)
    )

    return LiftedModel(
        model=model,
        bundle=bundle,
        index=index,
        node_info=node_info,
        edge_info=edge_info,
        factor_info=factor_info,
        theta_bar=theta_bar,
        symmetries=symmetries,
    )


def lift_vector(tau, index: CellIndex):
    """Average a ground coordinate vector within each cell."""
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (index.layout.size,):
        raise LiftError(
            "ground vector has %d coordinates, expected %d" % (tau.size, index.layout.size)
        )
    out = np.zeros(index.num_cells)
    for c, members in enumerate(index.cells):
        out[c] = float(tau[list(members)].mean())
    return out


def unlift_vector(tau_bar, index: CellIndex):
    """Broadcast a lifted vector back to ground coordinates."""
    tau_bar = np.asarray(tau_bar, dtype=float)
    if tau_bar.shape != (index.num_cells,):
        raise LiftError(
            "lifted vector has %d cells, expected %d" % (tau_bar.size, index.num_cells)
        )
    return tau_bar[index.rho]
