import pytest

from ancova_cp import (
    AncovaLayout,
    ContrastSpec,
    build_geometry,
    critical_values,
    reference_design,
)


@pytest.fixture(scope="session")
def ref():
    """Bundled reference design with the default levels; shared by most tests."""
    layout, contrast = reference_design()
    geom = build_geometry(layout, contrast)
    cfg = critical_values(layout, alpha=0.05, sig_tau=0.10, sig_xi=0.10)
    return layout, contrast, geom, cfg


@pytest.fixture(scope="session")
def small():
    """Cheap two-group design for structural tests."""
    layout = AncovaLayout(k=2, n=(4, 4), x=((1.0, 2.0, 3.0, 4.0), (2.0, 4.0, 6.0, 8.0)))
    contrast = ContrastSpec.treatment_difference(layout, 1, 2)
    geom = build_geometry(layout, contrast)
    cfg = critical_values(layout, alpha=0.05, sig_tau=0.10, sig_xi=0.10)
    return layout, contrast, geom, cfg


@pytest.fixture(scope="session")
def k4():
    """Unbalanced four-group design with small groups."""
    layout = AncovaLayout(
        k=4,
        n=(3, 7, 4, 5),
        x=((0.5, 1.0, 4.0), (1.0, 1.5, 2.0, 3.5, 5.0, 6.0, 9.0), (2.0, 2.5, 3.0, 7.0), (0.0, 1.0, 3.0, 4.5, 8.0)),
    )
    contrast = ContrastSpec.treatment_difference(layout, 1, 2)
    geom = build_geometry(layout, contrast)
    cfg = critical_values(layout, alpha=0.05, sig_tau=0.10, sig_xi=0.10)
    return layout, contrast, geom, cfg

