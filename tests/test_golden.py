"""Byte-level goldens of the rewrite: printed program plus atom layout, hashed.

The layout is one line per wired (wire, level) position, rebuilt from each
level's reported block.  Any change to the emitted rules, their order, the
atom numbering, the minimize terms or a level's block shows here.  Refresh
a digest only for a deliberate change of the encoding, after the verify
grid has passed.

The ``pch --trace`` goldens pin the simulated call history the same way:
every visited candidate's size and every learned nogood, in order.
"""

import hashlib
import random
from pathlib import Path

import pytest

from optsort import aspif
from optsort.analysis import binomial_document
from optsort.cli import main
from optsort.rewrite import RewriteConfig, RewriteReport, rewrite_objective

CORPUS = Path(__file__).parent / "corpus"

CONFIGS = {
    "default": RewriteConfig(),
    "sparseness-2": RewriteConfig(sparseness=2),
    "sparseness-inf": RewriteConfig(sparseness=None),
    "depth-8": RewriteConfig(depth_limit=8),
    "no-propagate": RewriteConfig(propagate=False),
}


def weighted_document(seed: int, n: int) -> aspif.AspifDocument:
    """One literal per atom (about a fifth negated), duplicates, zero and negative weights."""
    rng = random.Random(seed)
    terms = [(-a if rng.random() < 0.2 else a, rng.randint(1, 1000)) for a in range(1, n + 1)]
    terms += [(lit, rng.randint(1, 1000)) for lit, _ in rng.sample(terms, 4)]
    terms += [(n + 1, 0), (-(n + 2), 0), (n + 4, -rng.randint(1, 1000))]
    rng.shuffle(terms)
    return aspif.AspifDocument(statements=(aspif.Minimize(0, tuple(terms)),))


INPUTS = {
    "binomial-16": lambda: binomial_document(16, 8, opt=True),
    "binomial-64": lambda: binomial_document(64, 32, opt=True),
    "binomial-128": lambda: binomial_document(128, 64, opt=True),
    "weighted-128": lambda: weighted_document(7, 128),
}


def layout_text(report: RewriteReport) -> str:
    """``priority p wire i level l atom a`` for every wired position: wire i
    after level l of a level whose block starts at ``first`` is atom
    ``first + width * l + i - 1``."""
    return "\n".join(
        f"priority {lv.priority} wire {i} level {l} "
        f"atom {lv.atoms.start + lv.network_width * l + i - 1}"
        for lv in report.levels
        if lv.atoms
        for l in range(lv.network_depth + 1)
        for i in range(1, lv.network_width + 1)
    )


def digest(document: aspif.AspifDocument, config: RewriteConfig) -> str:
    rewritten, report = rewrite_objective(document, config)
    text = aspif.write(rewritten) + "\0" + layout_text(report)
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    "binomial-128": {
        "default": "afe32ea2e6a600ba457e83d0e13b744e0266f4259b74d7d86dcf67df659fb68e",
        "sparseness-2": "afe32ea2e6a600ba457e83d0e13b744e0266f4259b74d7d86dcf67df659fb68e",
        "sparseness-inf": "afe32ea2e6a600ba457e83d0e13b744e0266f4259b74d7d86dcf67df659fb68e",
        "depth-8": "27797812ccf658dbf1ddbd97c8ab621bb926f1ba9274898637fc413cf5dbc5b7",
        "no-propagate": "a6ddef98b55ba4c40be58bcbd9380d26dceb1658e84cb4919d12cf008eca51a5",
    },
    "binomial-16": {
        "default": "06fb4b39dbf512eb6da2876bb2f2186cc39f692af39e9e478bcfb8273d03ed93",
        "sparseness-2": "06fb4b39dbf512eb6da2876bb2f2186cc39f692af39e9e478bcfb8273d03ed93",
        "sparseness-inf": "06fb4b39dbf512eb6da2876bb2f2186cc39f692af39e9e478bcfb8273d03ed93",
        "depth-8": "4a386fefc20344b5b290e27c0157e48d5f707e1d4eff1c0ea40f19c1a4c12988",
        "no-propagate": "c606d93132ec79d7a5ae8fb8b4c07060977693cdc9892379f3ecfff627ff9cf5",
    },
    "binomial-64": {
        "default": "32bcfa618c01efb5d03f2178a5fe20d630347dfeabfe10f6125086e7a2997ba5",
        "sparseness-2": "32bcfa618c01efb5d03f2178a5fe20d630347dfeabfe10f6125086e7a2997ba5",
        "sparseness-inf": "32bcfa618c01efb5d03f2178a5fe20d630347dfeabfe10f6125086e7a2997ba5",
        "depth-8": "8588df67e2336367b5960983414f53f20033b8a4456688033ec599a84622ec18",
        "no-propagate": "bb6b24bbfb5918b5c58f96bfa82a923cf4391f533e5227a385b0e44e8e1f3837",
    },
    "weighted-128": {
        "default": "c3f483127fb5495a93abb04cb299be8c0df0db82b6ddd963d4bf5d2f530f1668",
        "sparseness-2": "a71d6bef5ff56f9ee3680b50962b80732e522ee0e3a5586add5d6941a56c776f",
        "sparseness-inf": "2b32db5bd4275f033605ad29ca6d6c0e5202ad213ede25038283ba06c3c766d5",
        "depth-8": "0aa54f5a936e0b0824053e02e4f34208d347a5b835c71e6adeae2a1c1893ba3e",
        "no-propagate": "6cf13991e2c9ef14709e143976281d3fa8fac437ab43468ecc1b0dbe795efb52",
    },
}

CORPUS_GOLDEN = {
    "01_empty.aspif": "d84a49fa99a64b750a08541097b26a190c58954564fc425fb60d58463b23804d",
    "02_fact.aspif": "f4234eb1d4a8694e1fcdd301ce8da7bd13153d66cb8d052f1b9fb2420ccd62cc",
    "03_normal_rules.aspif": "8c66ee66854ce140210fdb3f5d8c896babfa3f1d413c3ac454d7dc0255585263",
    "04_constraint.aspif": "20ac41a6ee473b8dc0318353740d8e7b2b7326ddc2086e5f8bb210986557ede7",
    "05_choice.aspif": "6d1847fbbfd99c00dd67dcb2a4c2adc6dde391ffc123264f6ce0de88df85484d",
    "06_choice_body.aspif": "3a70d0904745b47fd49a47a79c8ceecc4071e5e182d913c33761025fd7b7d8be",
    "07_weight_constraint.aspif": "a27e648d0741738bb069bd7c45f4d99bb29d215238460b2881c73cf190e618de",
    "08_weight_body_rule.aspif": "f5a25416e41e98bb8b7ef8180ce0f0a0680c01a5e67d64d08673f18d658afd62",
    "09_minimize.aspif": "a7daa29ac47b508c218a31ed33c6d229d9f90c75e3b386af194d0afeaf3adc67",
    "10_minimize_two_priorities.aspif": "c9ac727955eee693336f7ccc195f6f43a03003704f176ce45ec0b971fd536ebb",
    "11_minimize_shared_priority.aspif": "645b8b52904d2d58000224a286d17b59cc4be422e4a132bcd964723e618bf319",
    "12_minimize_mixed_weights.aspif": "24ee8b61103e622214fa99dc48e057ec943040ba9702d1c4e3535efbad7714a6",
    "13_output.aspif": "f00df6033ed3817819fb8a9f40318783597582ddaa0899401249ed49c3610875",
    "14_output_spaces.aspif": "f14c649cfcc6232c167fcbcf11923dd2566988a977a53380f349bd9fd301d924",
    "15_external.aspif": "07d976cf446cadecf13bc2c2082f5e0b8858b96d9219f3b8bcd1b80b175c1dd1",
    "16_edge.aspif": "1f0b418e6a5b7315bba5999755f8bfb4e03e95ae472aafe0b9a1bfaac28bfd58",
    "17_heuristic.aspif": "d0e69f4f5251753fbdcf0542b7a4504ea406b8adab42a1cf618715b376f0906e",
    "18_theory.aspif": "70ba58914486774a555ae0c2fc61de14302a1c002f15071d13cf902c342c24f0",
    "19_comment.aspif": "96d9b4cd71c54bf626a321db4d35ea511a931140c2150db1b3efd6d612068090",
    "20_binomial.aspif": "8f2aac5424e933d3154e4c4ffc615c0bcae1944cebf6fc1de48ce31c144c0051",
    "21_rewritten.aspif": "60b79e333affbffd01e92b9677d8d4ae7e7be03be3408986741dfde73a8918e4",
    "22_no_terminator.aspif": "f4234eb1d4a8694e1fcdd301ce8da7bd13153d66cb8d052f1b9fb2420ccd62cc",
    "23_messy_spacing.aspif": "63b478c5535ca3cf917408303fed483b5a7b37bcea3bab92093353f03275abed",
    "24_big_ids.aspif": "8c83a9b3ddbf7f97a3dbbd0fc919f767fd0c5310525993e70bbf5199cdc72234",
    "25_header_tags.aspif": "ae74a078f0d348a6b70fa5dcd82d7f2506f55791a139142ccbcf9c0367645e5b",
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_rewrite_digests(name):
    document = INPUTS[name]()
    got = {config: digest(document, CONFIGS[config]) for config in CONFIGS}
    assert got == GOLDEN[name]


def test_corpus_digests():
    got = {
        path.name: digest(aspif.parse(path.read_text()), RewriteConfig())
        for path in sorted(CORPUS.glob("*.aspif"))
    }
    assert got == CORPUS_GOLDEN


PCH_TRACE_GOLDEN = {
    ("10", "5", "none"): "a338cd4505ed62e071a9b2bea4a8be225b5297cd10c189caab8663c63d117d31",
    ("13", "6", "none"): "582e9acb3d75b897f609ad73c9818c00eafe35898b6de119c9a8b97cb6176b3f",
    ("12", "6", "full"): "0d74f49224ea71e58e827bb683f7f23459ad4030e22b176566029a211c6e7fda",
    ("12", "6", "depth:4"): "97c2d809a99a03b463f7c186eb72fd6f8280f8e5fa448797e87079b3c419cf7a",
    ("13", "6", "depth:5"): "fb7f45aadef767bdfb9bde8890215836ff2afd19a16e5680130da8a89b83fb1a",
}


@pytest.mark.parametrize("n,k,network", sorted(PCH_TRACE_GOLDEN))
def test_pch_trace_digests(capsys, n, k, network):
    assert main(["pch", n, k, "--network", network, "--trace"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PCH_TRACE_GOLDEN[n, k, network]
