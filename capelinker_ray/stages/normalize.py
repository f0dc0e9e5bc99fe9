"""Per-turn text normalization stage.

Mirrors the reference's cleaning pipeline
(/root/reference/data_raw/traindata_graafreinet.R:28-96: stri_trim_both,
strip non-letters, latin-ascii transliteration, uppercase) as ONE stateless
``map_batches`` stage over zero-copy Arrow batches, fully vectorized with
pyarrow.compute kernels.

Invariant (BASELINE.json input_hint): the original ``text`` column is never
modified — normalized text goes into a NEW ``text_norm`` column, so per-turn
text equality under stable (conv_id, turn_idx) ordering is preserved end to
end.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# the reference's diacritic fold table (util.R:203-208) extended with
# uppercase forms; applied as fixed vectorized replacements
_DIACRITIC_PAIRS = [
    ("é", "e"), ("ë", "e"), ("ê", "e"), ("è", "e"),
    ("â", "a"), ("á", "a"), ("à", "a"), ("å", "a"),
    ("ü", "u"), ("û", "u"), ("î", "i"), ("ï", "i"), ("ç", "c"),
    ("É", "E"), ("Ë", "E"), ("Ê", "E"), ("È", "E"),
    ("Â", "A"), ("Á", "A"), ("À", "A"), ("Å", "A"),
    ("Ü", "U"), ("Û", "U"), ("Î", "I"), ("Ï", "I"), ("Ç", "C"),
    ("ö", "o"), ("ô", "o"), ("ó", "o"), ("ò", "o"), ("ñ", "n"), ("ý", "y"),
]


def normalize_expr(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """UPPERCASE, fold diacritics, keep [A-Z0-9 ], collapse runs of spaces, trim."""
    x = col
    for src, dst in _DIACRITIC_PAIRS:
        x = pc.replace_substring(x, src, dst)
    x = pc.utf8_upper(x)
    x = pc.replace_substring_regex(x, r"[^A-Z0-9 ]", " ")
    x = pc.replace_substring_regex(x, r" +", " ")
    x = pc.utf8_trim_whitespace(x)
    return x


def _normalize_batch(batch: pa.Table) -> pa.Table:
    return batch.append_column("text_norm", normalize_expr(batch["text"]))


def normalize_turns(ds):
    """Dataset[transcript turns] -> same + ``text_norm`` column."""
    return ds.map_batches(_normalize_batch, batch_format="pyarrow")


def clean_documents(ds, *, text_col: str = "text",
                    out_col: str = "text_clean", lowercase: bool = True,
                    collapse_ws: bool = True, strip: bool = True):
    """Document-corpus cleaner (the curation-side analog of
    ``normalize_turns``): lowercase, collapse whitespace runs (space, tab,
    newline) to one space, trim — each step optional, all vectorized
    pyarrow.compute kernels over zero-copy Arrow batches. The original
    column is preserved; cleaned text lands in ``out_col``. Nulls clean to
    '' (the corpus-wide empty-text convention)."""
    import pyarrow as pa

    def clean(batch: pa.Table) -> pa.Table:
        x = pc.fill_null(batch[text_col].cast(pa.string()), "")
        if collapse_ws:
            x = pc.replace_substring_regex(x, r"\s+", " ")
        if strip:
            x = pc.utf8_trim_whitespace(x)
        if lowercase:
            x = pc.utf8_lower(x)
        return batch.append_column(out_col, x)

    return ds.map_batches(clean, batch_format="pyarrow")


def canonicalize_for_dedup(ds, *, text_col: str = "text",
                           out_col: str = "text_canon",
                           fold_digits: bool = True,
                           strip_punct: bool = True):
    """Aggressive canonical form for DEDUP KEYING (CCNet-style
    normalization, Wenzek et al. 2020, public): lowercase → every digit
    run folded to ``0`` → punctuation stripped → whitespace runs
    collapsed → trimmed. Two pages differing only in a timestamp, a view
    counter, or punctuation spacing canonicalize to the SAME key, so
    `exact_dedup` on ``out_col`` catches the trivial-variant duplicates
    that survive byte-exact hashing (run BEFORE the near-dup family,
    which is ~100× more expensive per doc).

    All steps are vectorized pyarrow.compute regex/case kernels over
    zero-copy Arrow batches — stateless, zero shuffle; the original
    column is preserved. Nulls canonicalize to ''."""
    import pyarrow as pa

    def canon(batch: pa.Table) -> pa.Table:
        x = pc.fill_null(batch[text_col].cast(pa.string()), "")
        x = pc.utf8_lower(x)
        if fold_digits:
            # runs INCLUDING , . separators: "1,234.5" -> one "0" (view
            # counters / timestamps of any format collapse to one token)
            x = pc.replace_substring_regex(x, r"[0-9][0-9.,]*", "0")
        if strip_punct:
            # RE2 class shared with the SQL twin: ASCII punctuation only
            # (unicode punctuation classes differ between engines)
            x = pc.replace_substring_regex(
                x, r"""[!"#$%&'()*+,\-./:;<=>?@\[\\\]^_`{|}~]""", " ")
        x = pc.replace_substring_regex(x, r"\s+", " ")
        x = pc.utf8_trim_whitespace(x)
        return batch.append_column(out_col, x)

    return ds.map_batches(canon, batch_format="pyarrow")
