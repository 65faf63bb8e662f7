#!/usr/bin/env python3
# The pipeline DSL and the command-line interface, driven in-process.

import tempfile
from pathlib import Path

from cl33 import format_pipeline, inverse_pipeline, parse_pipeline
from cl33.cli import main

SOURCE = """\
# model transform then projection
rotate u=(1,0,0) v=(0,1,0) theta=0.7853981633974483
translate v=(0,0,3)
perspective eye=(0,0,0) n=(0,0,1) c=1
"""

POINTS = """\
1 0.5 0 0
1 0 0.5 0
1 0.25 0.25 0.5
"""

pipe = parse_pipeline(SOURCE)
print("parsed steps:", [s.op for s in pipe.steps])
print("formatted back:\n" + format_pipeline(pipe))

# The affine prefix is invertible; the whole pipeline is not (projection).
prefix = parse_pipeline("\n".join(SOURCE.splitlines()[:3]))
print("inverse of the affine prefix:\n" + format_pipeline(inverse_pipeline(prefix)))

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    (tmp / "pipe.txt").write_text(SOURCE)
    (tmp / "pts.txt").write_text(POINTS)

    print("apply (raw weights):")
    lines = []
    code = main(["apply", "--pipeline", str(tmp / "pipe.txt"),
                 "--points", str(tmp / "pts.txt")], _capture=lines)
    print("\n".join("  " + s for s in lines), "(exit", code, ")")

    print("apply --normalize:")
    lines = []
    main(["apply", "--pipeline", str(tmp / "pipe.txt"),
          "--points", str(tmp / "pts.txt"), "--normalize"], _capture=lines)
    print("\n".join("  " + s for s in lines))

    print("matrix:")
    lines = []
    main(["matrix", "--pipeline", str(tmp / "pipe.txt")], _capture=lines)
    print("\n".join("  " + s for s in lines))

    print("check:")
    lines = []
    code = main(["check", "--pipeline", str(tmp / "pipe.txt")], _capture=lines)
    print("\n".join("  " + s for s in lines), "(exit", code, ")")

    # exit codes: 2 parse, 3 degenerate geometry, 4 residue, 5 conditions
    (tmp / "bad.txt").write_text("rotate u=(1,0,0) v=(1,0,0) theta=1\n")
    print("semantic error exit:",
          main(["check", "--pipeline", str(tmp / "bad.txt")], _capture=[]))
    (tmp / "degen.txt").write_text("perspective eye=(0,0,1) n=(0,0,1) c=1\n")
    print("degenerate exit:    ",
          main(["apply", "--pipeline", str(tmp / "degen.txt"),
                "--points", str(tmp / "pts.txt")], _capture=[]))
