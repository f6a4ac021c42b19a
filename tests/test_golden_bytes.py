"""Byte-for-byte regression of the CLI writers against recorded hashes.

Each subcommand runs at 50 paths x 8 steps with seed 3 and every file it
writes is hashed.  The hashes were recorded before the writers were folded
into `liqlab.table.write_table`; a change to any output byte (format,
row order, line ends, a number) fails here.  The solver subcommands are
left out: their BLAS reductions may differ with the thread count.
"""

import hashlib

import pytest

from liqlab.cli import main

ARGS = {
    "simulate": ["simulate"],
    "ledger": ["ledger", "--set", "strategy.kind=random"],
    "swaps": ["swaps"],
    "arbitrage-test": ["arbitrage-test"],
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
}


@pytest.mark.parametrize("name", sorted(ARGS))
def test_outputs_match_recorded_hashes(name, tmp_path):
    out = tmp_path / name
    code = main([*ARGS[name], "--out", str(out), "--seed", "3",
                 "--set", "run.n_paths=50", "--set", "grid.n_steps=8"])
    assert code == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == SHA256[name]
