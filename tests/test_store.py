import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from heckechain.arith import DomainError
from heckechain.mlt import EdgeContext, best_verdict
from heckechain.images import ImageClass
from heckechain.planner import (
    GoodDihedral,
    PrincipalSeries,
    Steinberg,
    Supercuspidal,
    SystemDescriptor,
    plan_to_safe_form,
)
from heckechain.store import (
    Store,
    canonical_json,
    checksum_of,
    descriptor_from_dict,
    descriptor_to_dict,
    local_type_from_dict,
    local_type_to_dict,
    plan_to_dict,
    resolve_cache_dir,
    verdict_to_dict,
)


def test_canonical_json_is_order_independent():
    a = canonical_json({"b": 1, "a": [2, {"y": 1, "x": 0}]})
    b = canonical_json({"a": [2, {"x": 0, "y": 1}], "b": 1})
    assert a == b
    assert "\n" not in a


def test_checksum_changes_with_payload():
    assert checksum_of({"v": 1}) != checksum_of({"v": 2})
    assert len(checksum_of({"v": 1})) == 16


def test_resolve_cache_dir_precedence(monkeypatch, tmp_path):
    monkeypatch.delenv("HECKECHAIN_CACHE_DIR", raising=False)
    assert resolve_cache_dir(None) is None
    assert resolve_cache_dir(str(tmp_path)) == str(tmp_path)
    monkeypatch.setenv("HECKECHAIN_CACHE_DIR", "/from/env")
    assert resolve_cache_dir(None) == "/from/env"
    assert resolve_cache_dir(str(tmp_path)) == str(tmp_path)


def test_store_round_trip(tmp_path):
    st = Store(tmp_path)
    assert st.enabled
    assert st.get("space", 11, 2, 7) is None
    payload = {"dim": 2, "rows": [1, 2, 3]}
    st.put("space", payload, 11, 2, 7)
    assert st.get("space", 11, 2, 7) == payload


def test_disabled_store_is_inert(tmp_path):
    st = Store(None)
    assert not st.enabled
    st.put("space", {"dim": 2}, 11, 2, 7)
    assert st.get("space", 11, 2, 7) is None


def test_tampered_entry_fails_checksum(tmp_path):
    st = Store(tmp_path)
    path = st.put("space", {"dim": 2}, 11, 2, 7)
    text = path.read_text()
    doc = json.loads(text)
    doc["payload"]["dim"] = 99
    tampered = json.dumps(doc)
    del doc["payload"]
    corruptions = [
        (tampered, "failed its checksum"),
        (text[:30], "is not valid JSON"),
        (json.dumps(doc), "has no payload"),
    ]
    for content, message in corruptions:
        path.write_text(content)
        with pytest.raises(DomainError, match=message) as exc:
            st.get("space", 11, 2, 7)
        assert str(path) in str(exc.value)


def test_refused_write_is_a_domain_error_and_leaves_no_temporary(tmp_path):
    st = Store(tmp_path)
    st.path("space", (11, 2, 7)).mkdir()
    with pytest.raises(DomainError, match="cannot write cache entry"):
        st.put("space", {"dim": 2}, 11, 2, 7)
    assert [p.name for p in tmp_path.iterdir()] == ["space_11_2_7.json"]


WRITES = 150
WRITERS = "abc"  # more writers than the two cores CI machines have
SRC = Path(__file__).resolve().parents[1] / "src"
WRITER = """
import sys
from heckechain.store import Store
st = Store(sys.argv[1])
for i in range(int(sys.argv[2])):
    st.put("orbits", {"writer": sys.argv[3], "i": i, "pad": list(range(200))}, 23, 2, 5)
"""


def read_while(st: Store, running, timeout: float = 60.0) -> None:
    """Read the shared key until the writers finish; every read must be a
    whole entry or a miss."""
    deadline = time.monotonic() + timeout
    while running():
        assert time.monotonic() < deadline, "writers did not finish"
        payload = st.get("orbits", 23, 2, 5)
        assert payload is None or payload["pad"] == list(range(200))


def test_concurrent_writer_threads_leave_only_entries(tmp_path):
    st = Store(tmp_path)

    def write(name):
        for i in range(WRITES):
            st.put("orbits", {"writer": name, "i": i, "pad": list(range(200))}, 23, 2, 5)

    threads = [threading.Thread(target=write, args=(n,)) for n in WRITERS]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        read_while(st, lambda: any(t.is_alive() for t in threads))
    finally:
        sys.setswitchinterval(interval)
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert st.get("orbits", 23, 2, 5)["i"] == WRITES - 1
    assert [p.name for p in tmp_path.iterdir()] == ["orbits_23_2_5.json"]


@pytest.mark.slow
def test_concurrent_writer_processes_leave_only_entries(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", WRITER, str(tmp_path), str(WRITES), n], env=env
        )
        for n in WRITERS
    ]
    try:
        read_while(Store(tmp_path), lambda: any(p.poll() is None for p in procs))
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
    assert [p.wait(timeout=10) for p in procs] == [0] * len(WRITERS)
    assert Store(tmp_path).get("orbits", 23, 2, 5)["i"] == WRITES - 1
    assert [p.name for p in tmp_path.iterdir()] == ["orbits_23_2_5.json"]


def test_local_type_round_trips():
    for t in (
        Steinberg(),
        PrincipalSeries(char_order=5),
        PrincipalSeries(char_order=3, wild=True),
        Supercuspidal(char_order=7),
        GoodDihedral(p=13, bound=10),
    ):
        assert local_type_from_dict(local_type_to_dict(t)) == t
    with pytest.raises(DomainError, match="unknown local type kind"):
        local_type_from_dict({"kind": "borel"})


def test_descriptor_round_trips():
    desc = SystemDescriptor(
        weight=4,
        conductor={
            2: Supercuspidal(char_order=3, wild=True),
            3: PrincipalSeries(char_order=12),
        },
        dihedral=True,
    )
    doc = descriptor_to_dict(desc)
    assert set(doc["conductor"]) == {"2", "3"}
    assert descriptor_from_dict(doc) == desc
    assert descriptor_from_dict(json.loads(json.dumps(doc))) == desc


def test_malformed_descriptor_document():
    with pytest.raises(DomainError, match="malformed descriptor document"):
        descriptor_from_dict({"weight": "twelve"})


def test_verdict_and_plan_serialization():
    assert verdict_to_dict(None) is None
    v = best_verdict(EdgeContext(ell=11, image=ImageClass("Large"), weights=(12, 2)))
    doc = verdict_to_dict(v)
    assert doc["theorem"] == v.theorem
    assert all(len(pair) == 2 for pair in doc["conditions"])

    plan = plan_to_safe_form(SystemDescriptor(weight=12, conductor={}), 10)
    pd = plan_to_dict(plan)
    assert pd["bound"] == 10
    assert pd["pair"] == {"p": 13, "q": 2521}
    assert [s["name"] for s in pd["steps"]] == [st.name for st in plan.steps]
    json.dumps(pd)


def test_store_files_carry_format_version(tmp_path):
    st = Store(tmp_path)
    st.put("orbits", {"x": 1}, 23, 2, 5)
    (path,) = [p for p in tmp_path.iterdir() if p.suffix == ".json"]
    doc = json.loads(path.read_text())
    assert doc["format"] == 1
    assert path.name.startswith("orbits_23_2_5")
