"""Rewrite every bit pin, the tables of optimize_bits.py and theorem_bits.py,
from the current code.  Run from the repository root:

    PYTHONPATH=src python tests/record_bits.py

test_optimize.PINS and test_theorem.PINS map each table name to (keys,
value): its keys in file order and the function that computes a key's entry.
This computes every table of both files before it writes either, so a
failure leaves both as they were; then it rewrites each table's dict literal
in place, one repr line per entry, and prints every entry that changed, was
added or was removed.  On a tree whose pins hold it leaves both files byte
for byte as they were.  pytest does not collect this file and no test runs
it, so a change that moves a pin by accident still fails the tests.
"""

import ast
import pathlib

import optimize_bits
import test_optimize
import test_theorem
import theorem_bits


def show(table, key):
    return repr(table[key]) if key in table else "absent"


def main() -> None:
    rewrites, changes, total = [], [], 0
    for data, pins in ((optimize_bits, test_optimize.PINS), (theorem_bits, test_theorem.PINS)):
        tables = {name: {key: value(key) for key in keys} for name, (keys, value) in pins.items()}
        for name, new in tables.items():
            old = getattr(data, name)
            total += len(new)
            for key in [*new, *(k for k in old if k not in new)]:
                if show(old, key) != show(new, key):
                    changes.append(f"{name}[{key!r}]: {show(old, key)} -> {show(new, key)}")
        path = pathlib.Path(data.__file__)
        lines = path.read_text().splitlines(keepends=True)
        assigns = [n for n in ast.parse("".join(lines)).body if isinstance(n, ast.Assign)]
        for node in reversed([n for n in assigns if n.targets[0].id in tables]):
            name = node.targets[0].id
            entries = "".join(f"    {k!r}: {v!r},\n" for k, v in tables[name].items())
            lines[node.lineno - 1 : node.end_lineno] = [f"{name} = {{\n{entries}}}\n"]
        rewrites.append((path, "".join(lines)))
    for path, text in rewrites:
        path.write_text(text)
    print(*changes, f"{len(changes)} of {total} pins changed", sep="\n")


if __name__ == "__main__":
    main()
