"""Golden CLI run: fixed-seed outputs pinned by sha256 digest.

One chain of subcommands (gen, represent, weight, train and eval for each
SVM scheme, self-training, committee, and sweep reports for every scheme
with and without a committee) runs on fixed seeds.  Every output file must
hash to the digest recorded for it, so any change to training, margins,
prediction or the writers shows up as a named file.  Outputs that echo
input paths are hashed with those fields removed.

Training is bit-reproducible on one numpy/BLAS build, not across builds.
The digests were recorded with numpy 2.4 on OpenBLAS 0.3.31; on another
build, re-record them by running `golden_outputs` on a known-good commit.
"""

import hashlib
import json

import pytest

from folkclass.cli import main
from folkclass.harness import format_flat_config
from folkclass.svm import SCHEMES

GOLDEN_SHA256 = {
    "bookmarks.jsonl":
        "9c86450ee1530f9ab799d8a2f71646159ae523af5b1c9b3bd153d537d79ff1c4",
    "committee-native.json":
        "c0385ca7932c3366276f21a8244b2aeccaadd77c1a326a40e44d3e319e956476",
    "committee-one-vs-all.json":
        "76324818cdb4871fe2d2321440c4f734b06269198caca3324f0fa93f51b9bede",
    "committee-one-vs-one.json":
        "0c5ec2941e2647b9eda568ed650616dea87377470d3b9c3c811b110bd1d6ec17",
    "irf-native.eval.json":
        "945afc3bbd0b10b5f9a3cc0bfcbdfaf54b74d21095b3834f76700b2d0eb3840a",
    "irf-native.margins":
        "891811947fd5404b60c111e1b4b8858555956afe8c0a0a795bc29f83077b3e36",
    "irf-native.model.json":
        "d8b578f8bc82f32195d892f9ffd80bc4fb056945c93fb78c25aac56b834b7709",
    "irf-native.train.json":
        "bbee65b3c396fdd0b5359038cdbf8962bdcb2ea974f6e154723e6edf29daa24b",
    "irf-one-vs-all.eval.json":
        "03533aad053fd51e1801c91825af6ac3b99fab38d604ef8f5ddd7ccb0307b269",
    "irf-one-vs-all.margins":
        "f60bd8f64b59f5207a40beea2a0bf98f6a7bbe591da9a8cb4d69b6fc2a1e4930",
    "irf-one-vs-all.model.json":
        "7b426320fd7c369152ae860b661910896967248e5bd274e9e096439ea9ca0de8",
    "irf-one-vs-all.train.json":
        "c6debcf60ff1cfebd82489236e480932c6431c38d79584cfc12316b0e1a10bf4",
    "irf-one-vs-one.eval.json":
        "dce50f4262618a5a0ad6551f2821e9aa8cfa8da9a960e656b6d2c38a0e1445e3",
    "irf-one-vs-one.margins":
        "79a6fd0bc9d62cab34c445c2322806a32880ac06dad32993a42fca455e238bdd",
    "irf-one-vs-one.model.json":
        "aa20d3f019706014b3a308ca2282bd875f74a972624700e6f197f5167e2613cf",
    "irf-one-vs-one.train.json":
        "d87510e8ba8d73dc4ac789895fac75b8286f65ad844f71fb0f08bdb2ce2e75a2",
    "irf.tsv":
        "6c547aea176a8fbc4834108ae05fcac1f3eb92e077f7fc15d3a8623a03215b52",
    "self-native.model.json":
        "7216bbe44f614cb15985d1efd5d1d80697cbf4673054857ff25da8fd4eadd8c7",
    "self-native.train.json":
        "e3ee5a18e2fe7e15055a2ccb8f7aa2a0e88651866fe787c747a5dc2809f72749",
    "self-one-vs-all.model.json":
        "b1e2e8422418e0c4b4815ff68e6184f8bf8a4bece4c8b8ec93fb2f0d65d76853",
    "self-one-vs-all.train.json":
        "82dca957d95d7c8c136610375158f279413949945c1e731b83f3edc578edaa72",
    "self-one-vs-one.model.json":
        "39ec01bc0dd962ff5c04be3d7c214ce82f095dd4c4483e5744b0ee1fc9ce96f6",
    "self-one-vs-one.train.json":
        "8a7c74f516c54c46c6b059c4df7b4a0c285fc5f76f37465e1da6a0d566e56cbc",
    "sweep-committee-native.json":
        "10ef5087d2041a90488b91d74b820342464038f96122e19a4abd205760e096ce",
    "sweep-committee-one-vs-all.json":
        "3e322ce0a60b164ee50fd68ae2dd640d19285ff11f0d95f37d202c4d34decdb9",
    "sweep-committee-one-vs-one.json":
        "a103fc1ebb1c59c78768623fa63a6a8c8544bc1105be9635f5f930205c120317",
    "sweep-single-native.json":
        "f9ab8debb1f2c3ee01787200012bf95653ae361812bb7a6faf462d788ca59b44",
    "sweep-single-one-vs-all.json":
        "822a0484b6350902cfb12cf25a0f71dbd5e12475069ec17a6d8da9d5c8e587a4",
    "sweep-single-one-vs-one.json":
        "2bc4c4cba195f34c4d7298af10b5f54ea67009d36fc8f28c4ac4943c2281c545",
    "tags-native.eval.json":
        "945afc3bbd0b10b5f9a3cc0bfcbdfaf54b74d21095b3834f76700b2d0eb3840a",
    "tags-native.margins":
        "d3c47e93937fb74872324176fcaa26207592ed62cc0f5f2b1971674b7424beec",
    "tags-native.model.json":
        "4c3de3ecc3742fd5b9043d28e03968777735fa5306eeefdff2f39e5030c4f95a",
    "tags-native.train.json":
        "bbee65b3c396fdd0b5359038cdbf8962bdcb2ea974f6e154723e6edf29daa24b",
    "tags-one-vs-all.eval.json":
        "03533aad053fd51e1801c91825af6ac3b99fab38d604ef8f5ddd7ccb0307b269",
    "tags-one-vs-all.margins":
        "b8e30cd4ab5cc0c6366355ea46dd356a04e090e9aace515716ed03ef9a2c4783",
    "tags-one-vs-all.model.json":
        "b641dc8b275a56a449697e95daeeea8b66fd8c66bd2009a14377f750440594ee",
    "tags-one-vs-all.train.json":
        "c6debcf60ff1cfebd82489236e480932c6431c38d79584cfc12316b0e1a10bf4",
    "tags-one-vs-one.eval.json":
        "dce50f4262618a5a0ad6551f2821e9aa8cfa8da9a960e656b6d2c38a0e1445e3",
    "tags-one-vs-one.margins":
        "8371adc1bdced725cd0be3e832f774a2876008c389dbcebd8296b77129b90943",
    "tags-one-vs-one.model.json":
        "4d99623ee40bde98ff57c1bfff09a4a176c03f6b803976b541aaf11825900247",
    "tags-one-vs-one.train.json":
        "d87510e8ba8d73dc4ac789895fac75b8286f65ad844f71fb0f08bdb2ce2e75a2",
    "tags.tsv":
        "c61da95f6213693c5664e13d3c8ca342211147fa3747bb94ceaf0e6d0091a8ee",
}

# `gen` at benchmark scale (pool 5000, acceptance 0.8, 300 users, 150
# resources, seed 7) in every regime at two Zipf exponents, recorded before
# preference draws became an inverse-CDF search, so they pin that search to
# the stream `Generator.choice(p=...)` consumed.
GEN_SHA256 = {
    ("resource-based", "1.0"):
        "ac410b1fdd77296f37d89fec53565107325d0adc1929a205872ca93cae6a2fff",
    ("resource-based", "1.5"):
        "9672c10f5237b06e2d7c305768bb355849eae0ce31c17c6051f5eae39074f69d",
    ("personomy-based", "1.0"):
        "626a7ee43722ed05ee2c3c2fec26cf7acd99137d1c55d73aad7c254a6a563cca",
    ("personomy-based", "1.5"):
        "7459f6d184fd368f05722b8b941007235c5f81cc8ae8f6369143221200991128",
    ("none", "1.0"):
        "1ff6130802e7179a6e7de4ed50f823fc50442481ee2ce84b65ae075a1c245794",
    ("none", "1.5"):
        "17260bb360e83b7435e9d87bbbc278260d947aedd5ec7efbf5ddd33fef01bcbe",
}


def _run(*argv):
    assert main([str(a) for a in argv]) == 0, argv


def golden_outputs(tmp_path):
    """Run the golden chain in `tmp_path`; return {output name: bytes}."""
    bookmarks = tmp_path / "bookmarks.jsonl"
    _run("gen", "--regime", "resource-based", "--users", 40, "--resources", 36,
         "--pool", 60, "--seed", 11, "-o", bookmarks)
    resources = sorted({json.loads(line)["resource"]
                        for line in bookmarks.read_text().splitlines()})
    labels = tmp_path / "labels.tsv"
    labels.write_text("".join(f"{r}\tcat{i % 3}\tsub{i % 2}\n"
                              for i, r in enumerate(resources) if i % 4 != 3))
    tags, irf = tmp_path / "tags.tsv", tmp_path / "irf.tsv"
    _run("represent", "--bookmarks", bookmarks, "--scheme", "weighted-fta",
         "-o", tags)
    _run("weight", "--bookmarks", bookmarks, "--kind", "irf", "-o", irf)

    for scheme in SCHEMES:
        for source, vectors in (("tags", tags), ("irf", irf)):
            stem = tmp_path / f"{source}-{scheme}"
            _run("train", "--vectors", vectors, "--labels", labels,
                 "--scheme", scheme, "--epochs", 15, "--seed", 5,
                 "--model-out", f"{stem}.model.json", "-o", f"{stem}.train.json")
            _run("eval", "--model", f"{stem}.model.json", "--vectors", vectors,
                 "--labels", labels, "--margins-out", f"{stem}.margins",
                 "-o", f"{stem}.eval.json")
        stem = tmp_path / f"self-{scheme}"
        _run("train", "--vectors", tags, "--labels", labels, "--scheme", scheme,
             "--epochs", 15, "--seed", 5, "--self-train",
             "--unlabeled-vectors", tags,
             "--model-out", f"{stem}.model.json", "-o", f"{stem}.train.json")
        _run("committee", tmp_path / f"tags-{scheme}.margins",
             tmp_path / f"irf-{scheme}.margins", "-o",
             tmp_path / f"committee-{scheme}.json")
        for members in ("", "weighted-fta,tf-irf"):
            config = {"member": "weighted-fta", "sizes": "6,12", "runs": "2",
                      "epochs": "10", "base_seed": "3", "svm_scheme": scheme}
            if members:
                config["committee"] = members
            conf = tmp_path / "sweep.conf"
            conf.write_text(format_flat_config(config))
            name = "committee" if members else "single"
            _run("sweep", "--bookmarks", bookmarks, "--labels", labels,
                 "--config", conf, "-o", tmp_path / f"sweep-{name}-{scheme}.json")

    outputs = {}
    for path in sorted(tmp_path.iterdir()):
        if path.name in ("labels.tsv", "sweep.conf"):
            continue
        data = path.read_bytes()
        if path.name.startswith("committee-"):
            doc = json.loads(data)
            del doc["meta"]["members"]       # input paths differ per run
            data = json.dumps(doc, sort_keys=True).encode()
        outputs[path.name] = data
    return outputs


def test_outputs_match_recorded_digests(tmp_path):
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in golden_outputs(tmp_path).items()}
    changed = sorted(name for name in digests.keys() | GOLDEN_SHA256.keys()
                     if digests.get(name) != GOLDEN_SHA256.get(name))
    assert changed == []


@pytest.mark.parametrize("regime,zipf", sorted(GEN_SHA256))
def test_benchmark_scale_gen_matches_recorded_digest(tmp_path, regime, zipf):
    out = tmp_path / "bookmarks.jsonl"
    _run("gen", "--regime", regime, "--users", 300, "--resources", 150,
         "--pool", 5000, "--acceptance", 0.8, "--zipf", zipf, "--seed", 7,
         "-o", out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_SHA256[regime, zipf]
