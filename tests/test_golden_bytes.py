"""Byte-for-byte regression of the CLI writers against recorded hashes.

Each case runs with seed 3 and every file it writes is hashed; a change
to any output byte (format, row order, line ends, a number) fails here.
The forward subcommands run at 50 paths x 8 steps; their hashes were
recorded before the writers were folded into `liqlab.table.write_table`.
The solver subcommands run at 200 paths x 16 steps, where their hashes
are the same with one and two BLAS threads: `bsde`, `bsde` with
`bsde.l_trunc=5.2` (paths stop from step 1 on, so the stopped-path
branch of the backward pass is hashed), `bsde` with `bsde.l_trunc=1.01`
(every path stops at node 0: the degenerate run) and `replicate` with two
unit counts (hat solve, two x-solves and the hedge inversion).
"""

import hashlib

import pytest

from liqlab.cli import main

SMALL = ["--set", "run.n_paths=50", "--set", "grid.n_steps=8"]
SOLVER = ["--set", "run.n_paths=200", "--set", "grid.n_steps=16"]

ARGS = {
    "simulate": ["simulate", *SMALL],
    "ledger": ["ledger", "--set", "strategy.kind=random", *SMALL],
    "swaps": ["swaps", *SMALL],
    "arbitrage-test": ["arbitrage-test", *SMALL],
    "bsde": ["bsde", *SOLVER],
    "bsde-stopping": ["bsde", "--set", "bsde.l_trunc=5.2", *SOLVER],
    "bsde-degenerate": ["bsde", "--set", "bsde.l_trunc=1.01", *SOLVER],
    "replicate": ["replicate", "--set", "run.n_x=2", *SOLVER],
}

SHA256 = {
    "simulate": {
        "paths.csv":
            "9e128edf95fb8d0df073a71a0144d7e9dbf59cafe0176af3abdbe868175526a9",
        "resolved.cfg":
            "1b816d19fc5ea482da0b5be31b0d7ac76e90a1ee75effa29c54d542da5c97275",
        "run_info.json":
            "205f82b5aed401df90f2526a0dc45d5fc779e8f9e5c250f9c84dc48f9fecf24c",
    },
    "ledger": {
        "ledger.csv":
            "f5739a112db6d50649c0e6fec4ab15d464ce79ac446f78a253c07bef6bcee85b",
        "ledger_summary.json":
            "438091981d441aeb6be42fbdc2421188751049074f146a937cf71ee79cb29248",
        "resolved.cfg":
            "72abfa81dcf640fa672c6474446c6c5038555c0d701d620775d7f56c1fb86af8",
        "run_info.json":
            "76154e86f5519d699c925905317b6e2520ecfe3d137feb867d112f5120084022",
    },
    "swaps": {
        "resolved.cfg":
            "1b816d19fc5ea482da0b5be31b0d7ac76e90a1ee75effa29c54d542da5c97275",
        "run_info.json":
            "0e3f1a7a22de5f6f51f0d1784d006e6c65302575a03750ea661a9a9fa18ffff2",
        "swaps.csv":
            "19ca61c63e5515c2f284256357732b60255e0f796bc108ba989c838793e138bf",
        "swaps_summary.json":
            "eaf3a2c6ed666e8d248ddf1ae1aa7d4bb7e4aeaba036c87ca8ae9419804487b3",
    },
    "arbitrage-test": {
        "arbitrage.csv":
            "1d6fa8655b4674bdd5ac136b35ebdaf3e433a307cd70eba6fa4e4d47fc02a11f",
        "arbitrage_summary.json":
            "c2d9453844972315958d2f54a665e8d6a2f04eda3a195ae50a6d8ea8f6a006b8",
        "resolved.cfg":
            "1b816d19fc5ea482da0b5be31b0d7ac76e90a1ee75effa29c54d542da5c97275",
        "run_info.json":
            "44f19a6ed932a6c361fc690a9fc9271eb1e6976b064fc1859e81a959970f74bc",
    },
    "bsde": {
        "bsde_diagnostics.csv":
            "bb6f935b17176b3947c8335597b5cf82a82255b50297d2db2208e6f3bcd19365",
        "bsde_summary.json":
            "53107de882e5d782c25af5a2b5e101a203d1d1c1fcf8ffd9b69e93a6cf653275",
        "resolved.cfg":
            "10a94bc31fc07e2a8e3e02074b44da725d549fbd177dd3f1222a409b7e68b42b",
        "run_info.json":
            "9675f88e0697035f9972ff21cf2a73fabc8cbad90b3666b4064ea238dba13c84",
    },
    "bsde-stopping": {
        "bsde_diagnostics.csv":
            "e8f36248534ff78925fdd80b875494ceaa88cf816972f01eabc94830f7affaf0",
        "bsde_summary.json":
            "114142921a9c3a9c231ce4eec9028948812c9292ace0c2c8e8b246156977bfef",
        "resolved.cfg":
            "c79f7068c60f6e0cb1f84d0262822ff5b9090bf91daab785db5969dd185b3a83",
        "run_info.json":
            "9675f88e0697035f9972ff21cf2a73fabc8cbad90b3666b4064ea238dba13c84",
    },
    "bsde-degenerate": {
        "bsde_diagnostics.csv":
            "d89c1fc117c62aa76b18e7377ed9bf33cd14705bf8f378ee91febf4bbfd49f6d",
        "bsde_summary.json":
            "2a95682fbbb8c1621d108e28c1f976ecdb027c25a04b740adf348d41e07a34d1",
        "resolved.cfg":
            "51b9a2ea8feec519e2aa3e3ed53a264845d222fd5579eea64451edf8d15f6bb5",
        "run_info.json":
            "9675f88e0697035f9972ff21cf2a73fabc8cbad90b3666b4064ea238dba13c84",
    },
    "replicate": {
        "report.csv":
            "dd7f00fef436dc284828566202bcfc97e07f06f8b60caf089a786b26c89825f2",
        "report.json":
            "583811df9230f66f468b733e4967743f02b039c7873f5170ec5a0cf3e4346e47",
        "resolved.cfg":
            "be17c8528394559781f0164800b2eef8b8601b5412d91f12bf6457922e4eed32",
        "run_info.json":
            "bd307ac4a9cf11bc6151a864eab2b3f296da47c25225a4ae9cc0b2a3db6a3671",
    },
}


@pytest.mark.parametrize("name", sorted(ARGS))
def test_outputs_match_recorded_hashes(name, tmp_path):
    out = tmp_path / name
    code = main([*ARGS[name], "--out", str(out), "--seed", "3"])
    assert code == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == SHA256[name]
