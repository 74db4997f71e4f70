import shutil
from pathlib import Path

import pytest

from tourneylab import Tournament, from_edge_list, tournament


@pytest.fixture
def classic3() -> Tournament:
    return from_edge_list(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def rps_well() -> Tournament:
    # rock beats scissors; scissors beats paper; paper beats rock;
    # well beats rock and scissors, loses to paper
    return from_edge_list(
        4,
        [(0, 2), (2, 1), (1, 0), (3, 0), (3, 2), (1, 3)],
        labels=["rock", "paper", "scissors", "well"],
    )


def make_transitive(n: int) -> Tournament:
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


@pytest.fixture
def transitive3() -> Tournament:
    return make_transitive(3)


@pytest.fixture
def transitive5() -> Tournament:
    return make_transitive(5)


@pytest.fixture
def strong_unplayable5() -> Tournament:
    """Strongly connected but unplayable: the kernel vector is (1,1,-1,1,1)."""
    return from_edge_list(
        5,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 0)],
    )


@pytest.fixture
def class_dir(tmp_path, monkeypatch) -> Path:
    """A copy of the shipped class lists, which the suites read instead."""
    copy = tmp_path / "classes"
    shutil.copytree(tournament.CLASS_DIR, copy)
    monkeypatch.setattr(tournament, "CLASS_DIR", str(copy))
    return copy


def rewrite_class_list(path: Path, edit) -> None:
    """Store edit(forms, auts), two lists, as the class list at `path`."""
    forms, auts = tournament._read_class_list(str(path))
    path.write_bytes(tournament._class_list_bytes(*edit(list(forms), list(auts))))
