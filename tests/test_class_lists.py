"""The shipped class lists: their bytes, their coverage of the suites' sizes,
their reader's format checks, and their declaration as package data."""

import fnmatch
import tomllib
from pathlib import Path

import pytest

from tourneylab import tournament
from tourneylab.equilibrium import _playable_classes
from tourneylab.tournament import (
    CLASS_DIR,
    _automorphism_counts,
    _class_list_bytes,
    _iso_classes,
    _read_class_list,
)
from tourneylab.verify import _even_bounds, _structural_bounds, _theorem_bounds

ROOT = Path(__file__).resolve().parents[1]


def derived(name: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    kind, n = name.removesuffix(".bin").split("_n")
    n = int(n)
    if kind == "all":
        return _iso_classes(n), _automorphism_counts(n)
    return _playable_classes(n)


def shipped() -> list[str]:
    return sorted(p.name for p in Path(CLASS_DIR).iterdir())


def test_the_shipped_lists():
    assert shipped() == [
        *(f"all_n{n}.bin" for n in (2, 4, 6, 8)),
        *(f"playable_n{n}.bin" for n in (3, 5, 7, 9)),
    ]


@pytest.mark.parametrize("name", shipped())
def test_shipped_list_equals_the_writer_bytes_of_the_derivation(name):
    forms, auts = derived(name)
    data = (Path(CLASS_DIR) / name).read_bytes()
    assert data == _class_list_bytes(forms, auts)
    assert _read_class_list(str(Path(CLASS_DIR) / name)) == (forms, auts)


def admitted(bounds, sizes) -> list[int]:
    ok = []
    for n in sizes:
        try:
            bounds(n)
        except ValueError:
            continue
        ok.append(n)
    return ok


def test_every_admitted_size_has_a_list():
    names = set(shipped())
    theorem = [2 * n + 1 for n in admitted(_theorem_bounds, range(-1, 20))]
    structural = admitted(_structural_bounds, range(-1, 40))
    even = [n for m in admitted(_even_bounds, range(-1, 40)) for n in range(2, m + 1, 2)]
    assert theorem == structural == [3, 5, 7, 9] and max(even) == 8
    for n in theorem + structural:
        assert f"playable_n{n}.bin" in names
    for n in even:
        assert f"all_n{n}.bin" in names


def read_bytes_as_list(tmp_path: Path, data: bytes):
    path = tmp_path / "list.bin"
    path.write_bytes(data)
    return _read_class_list(str(path))


def test_writer_layout(tmp_path):
    # count 3, deltas 0, 5, 300 (two bytes), then one sparse entry (2, 6)
    data = _class_list_bytes([0, 5, 305], [1, 1, 6])
    assert data == bytes([3, 0, 5, 0xAC, 0x02, 1, 2, 6])
    assert read_bytes_as_list(tmp_path, data) == ((0, 5, 305), (1, 1, 6))


@pytest.mark.parametrize(
    "data, message",
    [
        (b"", "truncated"),
        (bytes([3, 0, 5]), "truncated"),
        (bytes([3, 0, 5, 0xAC]), "truncated"),
        (bytes([3, 0, 5, 0xAC, 0x02, 1, 2]), "truncated"),
        (bytes([3, 0, 5, 0xAC, 0x02, 0, 0]), "trailing bytes"),
        (bytes([3, 0, 0, 7, 0]), "forms not strictly increasing at entry 1"),
        (bytes([2, 0, 5, 1, 0, 1]), r"bad \|Aut T\| entry \(0, 1\)"),
        (bytes([2, 0, 5, 1, 2, 3]), r"bad \|Aut T\| entry \(2, 3\)"),
        (bytes([2, 0, 5, 2, 1, 3, 1, 3]), r"bad \|Aut T\| entry \(1, 3\)"),
    ],
)
def test_reader_refuses_bad_layouts(tmp_path, data, message):
    with pytest.raises(ValueError, match=message):
        read_bytes_as_list(tmp_path, data)


def test_package_data_covers_every_list():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    patterns = config["tool"]["setuptools"]["package-data"]["tourneylab"]
    package = Path(tournament.__file__).parent
    for path in Path(CLASS_DIR).iterdir():
        rel = path.relative_to(package).as_posix()
        assert any(fnmatch.fnmatch(rel, p) for p in patterns), rel
