"""Every name a ``src/refscale`` module imports at top level is read by that
module. A name counts as read where it is loaded, where it appears in an
annotation (quoted ones included) and where ``__all__`` lists it; imports
under ``if TYPE_CHECKING:`` and ``try:`` blocks are checked like any other.
``from __future__`` imports bind nothing to read.

Every name in a module's ``__all__`` is defined there, by a top-level
``def``, ``class`` or assignment: a name has one home, and an import does
not make one.

``stats`` holds estimators only: it defines no ``*_artifacts`` function and
imports no stage module."""

import ast
import textwrap

import pytest

from conftest import REPO

MODULES = sorted((REPO / "src" / "refscale").glob("*.py"))


def _top_level_imports(body):
    """(bound name, line) of each import outside every function and class."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.If):
            yield from _top_level_imports(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from _top_level_imports(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                yield from _top_level_imports(handler.body)


def _names_read(tree):
    read = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(elt.value for elt in node.value.elts)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= _names_read(ast.parse(node.value, mode="eval"))
    return read


def unused_imports(source: str):
    tree = ast.parse(source)
    read = _names_read(tree)
    return [(name, line) for name, line in _top_level_imports(tree.body)
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_top_level_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_only_unread_names():
    source = textwrap.dedent('''
        from __future__ import annotations
        import os.path
        import json as js
        from typing import TYPE_CHECKING, Iterable, List, Optional
        from dataclasses import dataclass, field
        if TYPE_CHECKING:
            from decimal import Decimal
            from fractions import Fraction
        try:
            import zlib
        except ImportError:
            import gzip
        __all__ = ["dataclass"]

        def f(x: "Optional[Decimal]") -> List[int]:
            n: int = 0
            return [os.path.sep, js.dumps(x), n]
        ''')
    assert sorted(unused_imports(source)) == [
        ("Fraction", 9), ("Iterable", 5), ("field", 6), ("gzip", 13), ("zlib", 11)]


def _all_entries(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def exports_not_defined(source: str):
    """The ``__all__`` entries no top-level def, class or assignment binds."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in _all_entries(tree) if name not in defined]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_export_is_defined_in_its_module(path):
    assert exports_not_defined(path.read_text()) == []


def test_export_guard_flags_imported_and_unbound_names():
    source = textwrap.dedent('''
        from typing import List
        from .records import IngestError
        __all__ = ["IngestError", "Cell", "load", "LIMIT", "Alias", "gone", "List"]
        LIMIT = 3
        Alias: type = int

        class Cell:
            pass

        def load():
            pass
        ''')
    assert exports_not_defined(source) == ["IngestError", "gone", "List"]


# The modules that build or write a stage's artifacts. An estimator imports
# none of them, so the estimators never depend on a stage.
STAGES = {"cli", "dataset", "scalinglaw", "theory", "citetail", "zipflaw"}


def stage_ties(source: str):
    """The ``*_artifacts`` functions a module defines at top level and the
    stage modules it imports anywhere, sorted."""
    tree = ast.parse(source)
    ties = {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.endswith("_artifacts")}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = {part for alias in node.names for part in alias.name.split(".")}
        elif isinstance(node, ast.ImportFrom):
            names = set((node.module or "").split(".")) | {a.name for a in node.names}
        else:
            continue
        ties |= names & STAGES
    return sorted(ties)


def test_stats_holds_only_estimators():
    assert stage_ties((REPO / "src" / "refscale" / "stats.py").read_text()) == []


def test_stage_guard_flags_artifacts_and_stage_imports():
    source = textwrap.dedent('''
        import refscale.cli
        from . import theory as th, records
        from .dataset import ObservationCell
        from .pipeline import CellRefs
        from refscale import zipflaw

        def fit_artifacts():
            from .citetail import TooFewModels

        def artifacts():
            pass
        ''')
    assert stage_ties(source) == ["citetail", "cli", "dataset", "fit_artifacts", "theory",
                                  "zipflaw"]
