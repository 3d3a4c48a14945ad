#!/usr/bin/env python3
"""Rewrite the model files shipped in models/ from the built-in registry.

Run after changing a built-in model or the file format; the files are
canonical serializations, so a clean run leaves no diff.
"""

from __future__ import annotations

from pathlib import Path

from supermoyal.cli import save_model
from supermoyal.models import builtin, list_builtins

_DROP = str.maketrans({"-": "_", "|": "_", ",": "_", "[": "_", "]": None})


def slug(name: str) -> str:
    return name.lower().translate(_DROP)


def main() -> None:
    out_dir = Path(__file__).resolve().parent.parent / "models"
    out_dir.mkdir(exist_ok=True)
    for name in list_builtins():
        path = out_dir / f"{slug(name)}.model"
        save_model(builtin(name), path)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
