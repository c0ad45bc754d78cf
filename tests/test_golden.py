"""Byte-level goldens of the rewrite: printed program plus atom layout, hashed.

The layout is one line per wired (wire, level) position, rebuilt from each
level's reported block.  Any change to the emitted rules, their order, the
atom numbering, the minimize terms or a level's block shows here.  Refresh
a digest only for a deliberate change of the encoding, after the verify
grid has passed.

The ``pch --trace`` goldens pin the simulated call history the same way:
every visited candidate's size and every learned nogood, in order, and the
``render --weights`` goldens the drawn weight placement.
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
    """``priority p wire i level l atom a`` for every wired position after a
    sorter level: wire i after level l >= 1 of a level whose block starts at
    ``first`` is atom ``first + width * (l - 1) + i - 1``.  Before level 1 a
    wire is its input literal, which the printed rules show."""
    return "\n".join(
        f"priority {lv.priority} wire {i} level {l} "
        f"atom {lv.atoms.start + lv.network_width * (l - 1) + i - 1}"
        for lv in report.levels
        if lv.atoms
        for l in range(1, lv.network_depth + 1)
        for i in range(1, lv.network_width + 1)
    )


def digest(document: aspif.AspifDocument, config: RewriteConfig) -> str:
    rewritten, report = rewrite_objective(document, config)
    text = aspif.write(rewritten) + "\0" + layout_text(report)
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    "binomial-128": {
        "default": "14e16ebb8e13100da77658a3f68963ce14b267797fda2aba5ee38ba4aeb9d68b",
        "sparseness-2": "14e16ebb8e13100da77658a3f68963ce14b267797fda2aba5ee38ba4aeb9d68b",
        "sparseness-inf": "14e16ebb8e13100da77658a3f68963ce14b267797fda2aba5ee38ba4aeb9d68b",
        "depth-8": "5d39395dc29caad8a65163b9a0cc195354d0bf48c60b5a7b7f024489410c67c9",
        "no-propagate": "d916f713e90446217d83fda7dc9d81ca7598bfa982cc10e3b85a77ef834b1da6",
    },
    "binomial-16": {
        "default": "a1e558a0fa31d4e456b46bc8ac7c4b18a2a90e06e048c609fd0312fb65697fa4",
        "sparseness-2": "a1e558a0fa31d4e456b46bc8ac7c4b18a2a90e06e048c609fd0312fb65697fa4",
        "sparseness-inf": "a1e558a0fa31d4e456b46bc8ac7c4b18a2a90e06e048c609fd0312fb65697fa4",
        "depth-8": "36bc3c4c7e9f8294192146b068e28eebab850f406e5952fe5adc26e96a5764cf",
        "no-propagate": "f1701230a551c8c989624564e15d65d0d3d58c530f4ab6e7977a7de437aab1d6",
    },
    "binomial-64": {
        "default": "9f9683271aa3d3912981f8d1636a7bdc710a3b16888028d67b83e2520d135c35",
        "sparseness-2": "9f9683271aa3d3912981f8d1636a7bdc710a3b16888028d67b83e2520d135c35",
        "sparseness-inf": "9f9683271aa3d3912981f8d1636a7bdc710a3b16888028d67b83e2520d135c35",
        "depth-8": "6a35cad63bd2a65743a0f6059e072c3c248310d859bdc2b369a3c6931f34d788",
        "no-propagate": "55ba155d968f4cde5123403f83bc5b4da95c5f6ad2244d15fe9834d955094570",
    },
    "weighted-128": {
        "default": "e7869f6f5e3c6ff94f18582d831b258635db5b9cd3dba129e518f1aedd5b4b5a",
        "sparseness-2": "13ac3cca9e7cc9b62ec63b7f817d5c905bc409d8e2c578a4e9301d4dbe177066",
        "sparseness-inf": "1f3399f4b7502d6c77970b2df3a6dcbfba0bcb744e30063339fef4d949306d46",
        "depth-8": "fac490ffa110a10e45a70e12649293d52bf5a24c4992a1a20699204ff6c47993",
        "no-propagate": "f594886316f5bf72e9459b87b2d65f1b4cfca27acc15b5cf0607c35921ed61b8",
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
    "09_minimize.aspif": "a1c8f927c2398f3e0c472e604e3d7af092d9bd1fd376a3aee842271a05c58cf4",
    "10_minimize_two_priorities.aspif": "69b4eecde7b9dc3af622c33963c54ece2df1f2e69ce0b6107f2021e6b00f635f",
    "11_minimize_shared_priority.aspif": "a51e898ae3c518f055a058cc346e9342e67a138699c95eec657506300f64b792",
    "12_minimize_mixed_weights.aspif": "6e85baac5767a6a7a319eacce963aededec545aa1b58aed0935454182b45a314",
    "13_output.aspif": "f00df6033ed3817819fb8a9f40318783597582ddaa0899401249ed49c3610875",
    "14_output_spaces.aspif": "f14c649cfcc6232c167fcbcf11923dd2566988a977a53380f349bd9fd301d924",
    "15_external.aspif": "d0e00b5fdd4204c50472036a0ed1a5dc4dcf30da0b9a673e1a2a982e4bd7cb2d",
    "16_edge.aspif": "255595a4c2a742d3b2405e572615577f1ff9a7c420daaf68fc87c449c00265cb",
    "17_heuristic.aspif": "61b0c8d307a90e6491ecabfa5bb01d0e3d0dfb0d684c4e5e1c934c981cdf1527",
    "18_theory.aspif": "70ba58914486774a555ae0c2fc61de14302a1c002f15071d13cf902c342c24f0",
    "19_comment.aspif": "96d9b4cd71c54bf626a321db4d35ea511a931140c2150db1b3efd6d612068090",
    "20_binomial.aspif": "16f7c213ec67a9dfecf98ad5bc45dea6408ffaaac7671a7e734a7c99b876b24e",
    "21_rewritten.aspif": "7e6b06eb485c258a1b2f0276bcf14616ed41e5dfb958f54249823ab5778fb399",
    "22_no_terminator.aspif": "f4234eb1d4a8694e1fcdd301ce8da7bd13153d66cb8d052f1b9fb2420ccd62cc",
    "23_messy_spacing.aspif": "63b478c5535ca3cf917408303fed483b5a7b37bcea3bab92093353f03275abed",
    "24_big_ids.aspif": "8c83a9b3ddbf7f97a3dbbd0fc919f767fd0c5310525993e70bbf5199cdc72234",
    "25_header_tags.aspif": "ae74a078f0d348a6b70fa5dcd82d7f2506f55791a139142ccbcf9c0367645e5b",
    "26_sum_constraint.aspif": "9f66092b0e4f857dcee9f566c5cf9f1861d1e9172a31b11c18f02d4c0e6a03b0",
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_rewrite_digests(name):
    document = INPUTS[name]()
    got = {config: digest(document, CONFIGS[config]) for config in CONFIGS}
    assert got == GOLDEN[name]


# Unit weights give one digest at any sparseness (see the binomial goldens
# above), so the weighted objective alone pins where the weights are placed.
WEIGHT_PLACEMENT_CONFIGS = {
    "depth-1": RewriteConfig(depth_limit=1),
    "depth-2": RewriteConfig(depth_limit=2),
    "sparseness-3": RewriteConfig(sparseness=3),
    "depth-8-sparseness-2": RewriteConfig(depth_limit=8, sparseness=2),
    "depth-8-sparseness-inf": RewriteConfig(depth_limit=8, sparseness=None),
}

WEIGHT_PLACEMENT_GOLDEN = {
    "depth-1": "169d2029ae13899f18e82b66ec66e8abbcddc726078ba8dfd9af351a021125e4",
    "depth-2": "595c9721969d7cac1a233b28d01020bceab31de3e5cf61dd2b19478d16189b1b",
    "sparseness-3": "db3c322c20001a17c46e886f370912a80627db82c5733056130ec5f102946fa5",
    "depth-8-sparseness-2": "664f9206e990b37f0ede4cd6b1e877685aad23008ad87b010023710afbea0d5e",
    "depth-8-sparseness-inf": "5605148a7843a2bfa468d92b189e760437f5007d43cb1ae9d0761167814642c6",
}


def test_weight_placement_digests():
    document = INPUTS["weighted-128"]()
    got = {name: digest(document, config) for name, config in WEIGHT_PLACEMENT_CONFIGS.items()}
    assert got == WEIGHT_PLACEMENT_GOLDEN


def seeded_weights(seed: int, n: int) -> str:
    """``render --weights`` text: n weights drawn from 1..1000."""
    rng = random.Random(seed)
    return ",".join(str(rng.randint(1, 1000)) for _ in range(n))


RENDER_WEIGHTS_GOLDEN = {
    ("--sparseness", "1"): "8206deae507a1db921cf92309a118bbe628d45f8e981d728e096a8d1b63b6196",
    ("--sparseness", "2"): "3f61f75dd20b2088c3ea99232e10046d72e0fa5bb908cdcd692e89992a6e4a9c",
    ("--sparseness", "inf"): "ea6df67c2db1a63c2a4f482a8fde8ce6575af5d3ecaaf92679e25ccd1bbaf696",
    ("--no-propagate",): "1564d8b31815b926009ec5586092f88b8affe42a8f04faa872beed157646203e",
}


@pytest.mark.parametrize("flags", sorted(RENDER_WEIGHTS_GOLDEN))
def test_render_weights_digests(capsysbinary, flags):
    # the drawing labels each position with the weight that place_weights puts there
    assert main(["render", "16", "--weights", seeded_weights(7, 16), *flags]) == 0
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == RENDER_WEIGHTS_GOLDEN[flags]


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
