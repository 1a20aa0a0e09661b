"""Regenerate ``refs.json``, the references every benchmark run checks.

    python3 perfbench/make_refs.py

* ``tables``: cycles (uninstrumented, instrumented, scheduled) of every
  (table, row), parsed from the committed
  ``benchmarks/results/table{1,2,3}_*.txt``;
* ``instrument``: sha256 of the image ``qpt instrument --schedule
  --safe --fill-delay-slots`` writes for every catalogue image;
* ``serve``: the ``text_digest`` the daemon answers for every
  catalogue image, for ``schedule`` and for ``instrument`` (``verify``
  builds the same bytes; checked here on a sample).

Only rerun this when a change is meant to alter outputs; a benchmark
run that disagrees with these references counts the operation failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402

_ROW = re.compile(
    r"^(\d{3}\.\w+)\s+[\d.]+\s+([\d,]+)\s+([\d,]+) \([\d.]+\)\s+([\d,]+) \([\d.]+\)"
)


def table_refs() -> dict:
    refs = {}
    for table in catalog.TABLES:
        (path,) = (ROOT / "benchmarks" / "results").glob(f"table{table}_*.txt")
        for line in path.read_text(encoding="utf-8").splitlines():
            match = _ROW.match(line)
            if match:
                name, *cycles = match.groups()
                refs[f"{table}/{name}"] = [int(c.replace(",", "")) for c in cycles]
    return refs


def instrument_refs(workdir: str) -> dict:
    from repro.tools import qpt_cli
    from repro.workloads.generator import WorkloadSpec, generate

    refs = {}
    source = os.path.join(workdir, "in.rxe")
    output = os.path.join(workdir, "out.rxe")
    for index in range(catalog.CATALOG_SIZE):
        spec = WorkloadSpec(**catalog.catalog_spec(index))
        with open(source, "wb") as handle:
            handle.write(generate(spec).executable.to_bytes())
        argv = [
            "instrument", source, "-o", output,
            "--machine", catalog.catalog_machine(index),
            "--schedule", "--safe", "--fill-delay-slots", "--jobs", "1",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            if qpt_cli.main(argv) != 0:
                raise SystemExit(f"qpt instrument failed on catalogue image {index}")
        with open(output, "rb") as handle:
            refs[str(index)] = "sha256:" + hashlib.sha256(handle.read()).hexdigest()
    return refs


def serve_refs(workdir: str) -> dict:
    from repro.serve import SchedulingService, ServiceConfig, encode_batch, encode_job

    service = SchedulingService(
        ServiceConfig(jobs=1, ledger_path=os.path.join(workdir, "ledger.jsonl"))
    )

    def digest(index: int, kind: str, superblock: bool) -> str:
        job = encode_job(
            kind,
            workload=catalog.catalog_spec(index, serve=True),
            machine=catalog.catalog_machine(index),
            fill_delay_slots=True,
            superblock=superblock,
            return_executable=False,
        )
        (result,) = service.handle_batch(encode_batch([job]))["results"]
        if not result["ok"] or result.get("verified") is False:
            raise SystemExit(f"serve {kind} failed on catalogue image {index}: {result}")
        return result["text_digest"]

    refs = {}
    for index in range(catalog.CATALOG_SIZE):
        for superblock in (False, True):
            for kind in ("schedule", "instrument"):
                key = catalog.serve_ref_key(index, kind, superblock)
                refs[key] = digest(index, kind, superblock)
            if index % 8 == 0 and digest(index, "verify", superblock) != refs[key]:
                raise SystemExit(f"verify and instrument bytes differ on image {index}")
    return refs


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="perfbench-refs-", dir=ROOT)
    os.environ["REPRO_TABLE_CACHE_DIR"] = os.path.join(workdir, "tables")
    try:
        refs = {
            "tables": table_refs(),
            "instrument": instrument_refs(workdir),
            "serve": serve_refs(workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(HERE / "refs.json", "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(
        f"wrote {HERE / 'refs.json'}: {len(refs['tables'])} table rows, "
        f"{len(refs['instrument'])} instrument and {len(refs['serve'])} serve digests"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
