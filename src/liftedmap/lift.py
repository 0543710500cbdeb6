"""Collapse a ground model onto orbit cells.

Ground overcomplete coordinates are grouped into cells: per variable orbit a
cell for each value, per edge orbit one cell for (0,0) and one for (1,1), per
arc orbit one cell holding the opposite-value coordinates, and one cell per
factor-assignment orbit. The lifted parameters add the ground parameters
within each cell, which requires the ground parameters to be constant on
every cell; the lift map averages a ground vector over cells and the unlift
map broadcasts a lifted vector back.

Cells are numbered in the order of their first ground coordinate in the
model's OvercompleteLayout. Under the trivial group every cell is one
coordinate and cell i is coordinate i, so the lifted model is the ground
model column for column: ground inference is the lift under the trivial
group.
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
    OvercompleteLayout), cells numbered by their first coordinate; cells[c]
    lists the ground coordinates of cell c.
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

    # a cell is numbered when its first ground coordinate is met, so the
    # trivial group gives rho == arange(layout.size)
    vars_, edges, arcs = bundle.vars.cell_of, bundle.edges.cell_of, bundle.arcs.cell_of
    assignments = bundle.factor_assignments.cell_of
    cell_of_label = {}
    rho = []
    for key in layout.keys:
        if key[0] == "node":
            _, v, t = key
            label = ("node", vars_[v], t)
        elif key[0] == "edge":
            _, u, v, a, b = key
            if a == b:
                label = ("edge", edges[(u, v)], "00" if a == 0 else "11")
            else:
                label = ("arc", arcs[(u, v) if a == 0 else (v, u)])
        else:
            _, j, a = key
            label = ("factor", assignments[(j, a)])
        rho.append(cell_of_label.setdefault(label, len(cell_of_label)))
    num_cells = len(cell_of_label)

    cells = [[] for _ in range(num_cells)]
    for i, c in enumerate(rho):
        cells[c].append(i)
    cells = tuple(tuple(members) for members in cells)

    # per-cell spread and sum of theta over the coordinates grouped by cell
    theta = layout.theta_vector()
    by_cell = theta[np.fromiter((i for members in cells for i in members), np.int64, layout.size)]
    starts = np.cumsum([0] + [len(members) for members in cells[:-1]])
    spread = np.maximum.reduceat(by_cell, starts) - np.minimum.reduceat(by_cell, starts)
    bad = np.flatnonzero(spread > 1e-12)
    if bad.size:
        members = cells[bad[0]]
        vals = theta[list(members)]
        lo = members[int(vals.argmin())]
        hi = members[int(vals.argmax())]
        raise LiftError(
            "cell not theta-constant: coordinates %r and %r carry %r and %r"
            % (layout.keys[lo], layout.keys[hi], float(theta[lo]), float(theta[hi]))
        )
    theta_bar = np.add.reduceat(by_cell, starts) + 0.0  # -0.0 becomes 0.0, as in sum()

    index = CellIndex(
        layout=layout,
        rho=np.array(rho, dtype=np.int64),
        cells=cells,
        labels=tuple(cell_of_label),
    )
    node_info = tuple(
        NodeOrbitInfo(
            rep=v, cell0=rho[layout.node_index(v, 0)], cell1=rho[layout.node_index(v, 1)]
        )
        for v in bundle.vars.reps
    )
    edge_info = tuple(
        EdgeOrbitInfo(
            rep=(u, v),
            cell00=rho[layout.edge_index(u, v, 0, 0)],
            cell11=rho[layout.edge_index(u, v, 1, 1)],
            cell_uv=rho[layout.edge_index(u, v, 0, 1)],
            cell_vu=rho[layout.edge_index(u, v, 1, 0)],
        )
        for (u, v) in bundle.edges.reps
    )
    factor_info = tuple(
        FactorOrbitInfo(rep=(j, a), cell=rho[layout.factor_index(j, a)])
        for (j, a) in bundle.factor_assignments.reps
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
