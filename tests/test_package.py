"""The public namespace: what `ehd2d.__all__` promises is there."""

import ehd2d

# Folded into energy_report, whose fields carry their values.
REMOVED = ("relative_entropy", "equilibrium_energy", "wwrel_check",
           "linearized_energy", "error_norms", "csiszar_check")


def test_every_exported_name_resolves():
    missing = [name for name in ehd2d.__all__ if not hasattr(ehd2d, name)]
    assert missing == []
    assert len(set(ehd2d.__all__)) == len(ehd2d.__all__)


def test_removed_diagnostics_are_not_exported():
    for name in REMOVED:
        assert name not in ehd2d.__all__
        assert not hasattr(ehd2d, name)
        assert not hasattr(ehd2d.diagnostics, name)
