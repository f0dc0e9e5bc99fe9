"""scripts/check_oracle.py --changed: the per-query dirty hash must see
every engine module a query reaches, including modules imported inside
the query's function body."""

import importlib.util
import os
import shutil

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "check_oracle.py")


def _check_oracle():
    spec = importlib.util.spec_from_file_location("check_oracle", _SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_query_hash_sees_function_body_imports(tmp_path, monkeypatch):
    from capelinker_ray.pipelines.queries import q_event_rank, sql_event_rank
    from capelinker_ray.stages import scan
    co = _check_oracle()
    # q_event_rank imports stages.scan inside its body only
    assert "capelinker_ray.stages.scan" in co._referenced_modules(
        q_event_rank)
    copy = tmp_path / "scan.py"
    shutil.copy(scan.__file__, copy)
    monkeypatch.setattr(scan, "__file__", str(copy))
    sql = sql_event_rank("")
    before = co._query_hash(q_event_rank, sql)
    assert co._query_hash(q_event_rank, sql) == before
    with open(copy, "a") as f:
        f.write("\n# edited\n")
    assert co._query_hash(q_event_rank, sql) != before
