"""Rewrite the scan pins, SCAN_SHA256 in test_theorem.py, from the current code.

Run from the repository root:

    PYTHONPATH=src python tests/record_bits.py

For each key of SCAN_SHA256 it computes the sha256 of
jsonio.dumps(scan_angle_space(*key).to_document()), writes the dict back in
place and prints each key whose pin changed.  The keys stay as they are in
the file; to pin another scan, edit the key there and run this.  On a tree
whose pins hold it leaves the file byte for byte as it was.  pytest does
not collect this file and no test runs it, so a change that moves a pin by
accident still fails test_scan_report_bytes_pinned.
"""

import ast
import hashlib
import pathlib

from fagnano import jsonio
from fagnano.theorem import scan_angle_space

PINS = pathlib.Path(__file__).with_name("test_theorem.py")


def scan_sha256(args: tuple) -> str:
    text = jsonio.dumps(scan_angle_space(*args).to_document())
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def main() -> None:
    source = PINS.read_text()
    node = next(
        n for n in ast.parse(source).body
        if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "SCAN_SHA256"
    )
    old = ast.literal_eval(node.value)
    new = {args: scan_sha256(args) for args in old}
    entries = "".join(f'    {args!r}: "{digest}",\n' for args, digest in new.items())
    lines = source.splitlines(keepends=True)
    lines[node.lineno - 1 : node.end_lineno] = [f"SCAN_SHA256 = {{\n{entries}}}\n"]
    PINS.write_text("".join(lines))
    changed = [args for args in new if new[args] != old[args]]
    for args in changed:
        print(f"SCAN_SHA256[{args!r}]: {old[args]} -> {new[args]}")
    print(f"{len(changed)} of {len(new)} pins changed")


if __name__ == "__main__":
    main()
