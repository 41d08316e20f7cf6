"""Where a measurement came from: commit, source digest and machine."""

from __future__ import annotations

import hashlib
import os
import platform

import bootstrap


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    in an exported tree."""
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over src/plap/*.py, which identifies the code in any tree."""
    h = hashlib.sha256()
    for path in sorted((bootstrap.SRC / "plap").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return "sha256:" + h.hexdigest()[:16]


def describe() -> dict:
    return {"git_commit": git_commit(), "source_digest": source_digest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine()}
