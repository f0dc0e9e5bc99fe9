"""PII detection and redaction over a text column.

A standard pre-training curation stage (beyond the reference's linkage
surface, per the build brief): count and mask emails, IPv4 addresses and
phone numbers. Stateless vectorized ``map_batches`` — the compiled patterns
live at module scope, so Ray ships them once with the function closure and
each worker reuses them across batches.

The patterns are deliberately written in the RE2-compatible subset shared by
Python ``re`` and DuckDB (no lookaround, no backreferences), so the DuckDB
oracle in pipelines/queries.py runs the *same* expressions: non-overlapping
leftmost scans agree between both engines for these patterns.

Redaction applies categories in a fixed order (email -> ip -> phone) so a
digit run inside an already-masked span can't re-match; counts are taken
independently on the raw text (a region matching two categories counts in
both — documented, and mirrored by the oracle).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

__all__ = ["PII_PATTERNS", "add_pii_stats", "redact_pii"]

# category -> (pattern, replacement). Order matters for redaction.
PII_PATTERNS: dict[str, tuple[str, str]] = {
    "email": (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    "ip": (r"\b(?:\d{1,3}\.){3}\d{1,3}\b", "<IP>"),
    "phone": (r"\+\d{7,15}|\b\d{3}-\d{3}-\d{4}\b", "<PHONE>"),
}

_COMPILED = {k: re.compile(p) for k, (p, _r) in PII_PATTERNS.items()}


def add_pii_stats(ds, text_col: str = "text"):
    """+ ``n_emails`` / ``n_ips`` / ``n_phones`` int64 match counts."""
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        s = df[text_col].fillna("")
        out = df.copy()
        for cat, rx in _COMPILED.items():
            out[f"n_{cat}s"] = s.str.count(rx).astype(np.int64)
        return out
    return ds.map_batches(fn, batch_format="pandas")


def redact_pii(ds, text_col: str = "text",
               out_col: str = "text_redacted"):
    """+ ``out_col``: text with every PII match replaced by its placeholder
    (``<EMAIL>``/``<IP>``/``<PHONE>``), categories applied in declaration
    order. Set ``out_col=text_col`` to rewrite in place."""
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        s = df[text_col].fillna("")
        for cat, (_, repl) in PII_PATTERNS.items():
            s = s.str.replace(_COMPILED[cat], repl, regex=True)
        out = df.copy()
        out[out_col] = s
        return out
    return ds.map_batches(fn, batch_format="pandas")
