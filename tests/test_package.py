"""The public namespace: what `ehd2d.__all__` promises is there."""

import ehd2d

# (module, name) of functions folded into another owner: the diagnostics
# into energy_report, whose fields carry their values, and the single-face
# Scharfetter-Gummel flux into the sweep bands of transport._sweep_bands.
REMOVED = [("diagnostics", name) for name in (
    "relative_entropy", "equilibrium_energy", "wwrel_check",
    "linearized_energy", "error_norms", "csiszar_check")]
REMOVED.append(("transport", "sg_face_flux"))


def test_every_exported_name_resolves():
    missing = [name for name in ehd2d.__all__ if not hasattr(ehd2d, name)]
    assert missing == []
    assert len(set(ehd2d.__all__)) == len(ehd2d.__all__)


def test_removed_diagnostics_are_not_exported():
    for module, name in REMOVED:
        assert name not in ehd2d.__all__
        assert not hasattr(ehd2d, name)
        assert not hasattr(getattr(ehd2d, module), name)
