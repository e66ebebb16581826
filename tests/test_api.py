"""The public surface: one solve surface, with no entry point that solves
a problem's blocks one by one, ``qmbox.__all__`` as README's "Public API"
subsection lists it, and the result's plan typed by public names."""

import re
import typing
from pathlib import Path

import qmbox
from qmbox import eig, hamiltonian

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_public_api() -> list[str]:
    """The names that README's "Public API" subsection lists, one a line,
    in its order."""
    section = README.read_text(encoding="utf-8").split("\n### Public API\n", 1)[1]
    section = re.split(r"^#", section, maxsplit=1, flags=re.M)[0]
    return re.findall(r"^- `(\w+)`:", section, flags=re.M)


def test_one_solve_surface_with_public_result_types():
    for module, name in ((eig, "diagonalize_blocks"), (eig, "block_eigenvalues"),
                         (hamiltonian, "hamiltonian_blocks")):
        assert not hasattr(module, name), f"{module.__name__}.{name} is back"
    assert qmbox.__all__ == readme_public_api()
    assert typing.get_type_hints(qmbox.Spectrum)["plan"] is qmbox.Plan is eig.Plan
    assert typing.get_type_hints(qmbox.Plan)["blocks"] == tuple[qmbox.Block, ...]
