"""Local stand-in for the driver's correctness gate: run every queries()
entry at sf0.01 side-by-side with its oracle_sql() in DuckDB and compare
row count, column names, and order-insensitive values.

Run:  python scripts/check_oracle.py [sf_dir] [query ...]
      python scripts/check_oracle.py --changed [sf_dir]

``--changed`` runs only the queries whose implementation source (the
query callable, followed transitively through same-package calls one
level deep) or oracle SQL hash differs from the last recorded green run
(cache: .cache/oracle_hashes.json, updated on success) — keeps
per-commit local verification cheap against the whole query registry.
"""

from __future__ import annotations

import os
import sys

import duckdb
import numpy as np
import pandas as pd
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_df(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    raise TypeError(type(res))


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
        elif df[c].dtype.kind in "iu":
            df[c] = df[c].astype(np.int64)
        elif df[c].dtype.kind == "f":
            df[c] = df[c].astype(np.float64).round(9)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


_HASH_CACHE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".cache", "oracle_hashes.json")


def _code_objects(code):
    """``code`` and every code object nested in it (inner functions,
    lambdas, comprehensions), depth first."""
    yield code
    for c in code.co_consts:
        if hasattr(c, "co_code"):
            yield from _code_objects(c)


def _referenced_modules(fn) -> set[str]:
    """Names of the modules ``fn`` reaches one level deep: the modules of
    the globals its code (nested functions included) names, and every
    module it imports inside a function body (``IMPORT_NAME``, plus
    ``IMPORT_FROM`` names that are submodules), relative imports resolved
    against ``fn``'s package."""
    import dis
    import importlib.util
    mods = set()
    g = getattr(fn, "__globals__", {})
    package = (getattr(fn, "__module__", "") or "").rpartition(".")[0]
    code = getattr(fn, "__code__", None)
    for co in (_code_objects(code) if code is not None else ()):
        for name in co.co_names:
            obj = g.get(name)
            mod = getattr(obj, "__module__", None) or (
                obj.__name__ if hasattr(obj, "__file__") else None)
            if mod:
                mods.add(mod)
        level, base = 0, None
        for ins in dis.get_instructions(co):
            if ins.opname == "LOAD_CONST" and isinstance(ins.argval, int):
                level = ins.argval
            elif ins.opname == "IMPORT_NAME":
                try:
                    base = importlib.util.resolve_name(
                        "." * level + ins.argval, package)
                except (ImportError, ValueError):
                    base = None
                if base:
                    mods.add(base)
            elif ins.opname == "IMPORT_FROM" and base:
                sub = f"{base}.{ins.argval}"
                try:
                    if importlib.util.find_spec(sub) is not None:
                        mods.add(sub)
                except ImportError:     # a name, not a submodule
                    pass
    return mods


def _query_hash(fn, sql: str | None) -> str:
    """sha256 of the query callable's source, its oracle SQL, and the file
    contents of every capelinker_ray module the callable reaches one level
    deep (``_referenced_modules``: globals and function-body imports — a
    heuristic dirty-bit, not a build system: a deep-transitive edit can be
    missed, so full runs still gate rounds).
    """
    import hashlib
    import importlib
    import inspect
    h = hashlib.sha256()
    try:
        h.update(inspect.getsource(fn).encode())
    except (OSError, TypeError):
        h.update(repr(fn).encode())
    h.update((sql or "").encode())
    own = getattr(fn, "__module__", "")
    for mod in sorted(_referenced_modules(fn)):
        # the defining module (queries.py) is excluded: the fn's own
        # source is already hashed, and hashing the whole registry file
        # would invalidate every query on every new-query commit
        if mod == own or not mod.startswith("capelinker_ray"):
            continue
        mfile = getattr(importlib.import_module(mod), "__file__", None)
        if mfile and os.path.exists(mfile):
            with open(mfile, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def main() -> int:
    argv = [a for a in sys.argv[1:]]
    changed_only = "--changed" in argv
    if changed_only:
        argv.remove("--changed")
    sf_dir = argv[0] if argv else "/root/testdata/sf0.01"
    only = set(argv[1:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)
    import __ray_entry__ as e
    qs = e.queries()
    sqls = e.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")

    import json
    hashes = {n: _query_hash(fn, sqls.get(n)) for n, fn in qs.items()}
    prev = {}
    if changed_only and os.path.exists(_HASH_CACHE):
        with open(_HASH_CACHE) as f:
            prev = json.load(f)

    failures = 0
    green = dict(prev)
    ran = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        if changed_only and prev.get(name) == hashes[name]:
            continue
        ran += 1
        try:
            mine = canon(to_df(fn(sf_dir)))
        except Exception as ex:
            print(f"[FAIL] {name}: ray query raised {type(ex).__name__}: {ex}")
            failures += 1
            green.pop(name, None)
            continue
        if name not in sqls:
            print(f"[rows-only] {name}: {len(mine)} rows, "
                  f"cols={list(mine.columns)}")
            green[name] = hashes[name]
            continue
        try:
            oracle = canon(con.execute(sqls[name]).fetchdf())
        except Exception as ex:
            print(f"[FAIL] {name}: oracle raised {type(ex).__name__}: {ex}")
            failures += 1
            green.pop(name, None)
            continue
        ok_rows = len(mine) == len(oracle)
        ok_cols = list(mine.columns) == list(oracle.columns)
        ok_vals = False
        if ok_rows and ok_cols:
            try:
                pd.testing.assert_frame_equal(mine, oracle, check_dtype=False,
                                              check_exact=False, rtol=0, atol=1e-9)
                ok_vals = True
            except AssertionError as ex:
                msg = str(ex).splitlines()[:6]
        if ok_rows and ok_cols and ok_vals:
            print(f"[OK]   {name}: {len(mine)} rows")
            green[name] = hashes[name]
        else:
            failures += 1
            green.pop(name, None)
            print(f"[FAIL] {name}: rows {len(mine)} vs {len(oracle)}; "
                  f"cols {list(mine.columns)} vs {list(oracle.columns)}")
            if ok_rows and ok_cols:
                print("       " + " / ".join(msg))
                diff = (mine != oracle) & ~(mine.isna() & oracle.isna())
                bad = diff.any(axis=1)
                print(mine[bad].head(3))
                print(oracle[bad].head(3))
    ray.shutdown()
    os.makedirs(os.path.dirname(_HASH_CACHE), exist_ok=True)
    with open(_HASH_CACHE, "w") as f:
        json.dump(green, f, indent=0, sort_keys=True)
    if changed_only:
        print(f"\n--changed: ran {ran} of {len(qs)} "
              f"({len(qs) - ran} unchanged-green skipped)")
    print(f"\n{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
