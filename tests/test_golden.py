"""Golden CLI run: fixed-seed outputs pinned by sha256 digest.

One chain of subcommands (gen, represent, weight, train and eval for each
SVM scheme, self-training, committee, and sweep reports for every scheme
with and without a committee) runs on fixed seeds.  Every output file must
hash to the digest recorded for it, so any change to training, margins,
prediction or the writers shows up as a named file.  Outputs that echo
input paths are hashed with those fields removed.

Training is bit-reproducible on one numpy/BLAS build, not across builds.
The digests were recorded with numpy 2.4 on OpenBLAS 0.3.31 and are the
same under its SkylakeX, Haswell, Sandybridge and Prescott kernels; on
another build, re-record them by running `golden_outputs` on a known-good
commit.
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
        "0871bae429e8ff6daa4ca7d95efee8da2b11a3936029623532608dc486373b0d",
    "committee-one-vs-all.json":
        "5c62456aff524fa9a00a1d694c54a25ee07ff66ac51ef8a7ecee366d67581edd",
    "committee-one-vs-one.json":
        "d55149a22675c9a4ad5859e3f163b86b5467c27681efc1652a4611f9016a440c",
    "irf-native.eval.json":
        "945afc3bbd0b10b5f9a3cc0bfcbdfaf54b74d21095b3834f76700b2d0eb3840a",
    "irf-native.margins":
        "9353f72a7b67ee3654992eba096da6f2eec5d048f102732b591b72c5a41e511f",
    "irf-native.model.json":
        "853460f058f34e22b7e017108dcea4c0bf12ae6d3801734727fbf7f9a265088a",
    "irf-native.train.json":
        "bbee65b3c396fdd0b5359038cdbf8962bdcb2ea974f6e154723e6edf29daa24b",
    "irf-one-vs-all.eval.json":
        "03533aad053fd51e1801c91825af6ac3b99fab38d604ef8f5ddd7ccb0307b269",
    "irf-one-vs-all.margins":
        "30790d33c1d0dedc06fcf16fa6cf95ddd3b8a0f2fab97d27f1475ab4f7f767a3",
    "irf-one-vs-all.model.json":
        "162a06c57eefb2cd574d62078d7ceda7745f27c17005f2da2292a01f9264e88c",
    "irf-one-vs-all.train.json":
        "c6debcf60ff1cfebd82489236e480932c6431c38d79584cfc12316b0e1a10bf4",
    "irf-one-vs-one.eval.json":
        "dce50f4262618a5a0ad6551f2821e9aa8cfa8da9a960e656b6d2c38a0e1445e3",
    "irf-one-vs-one.margins":
        "ea70f00cb95428cfa9b5a3c03dc3761b3707f03359b2abbabae8c8e457694397",
    "irf-one-vs-one.model.json":
        "c62fce4bc52ff6c64454ac7d5842e0000f74b3dc6518caff9dba4f7c8e3f47e2",
    "irf-one-vs-one.train.json":
        "d87510e8ba8d73dc4ac789895fac75b8286f65ad844f71fb0f08bdb2ce2e75a2",
    "irf.tsv":
        "6c547aea176a8fbc4834108ae05fcac1f3eb92e077f7fc15d3a8623a03215b52",
    "self-native.model.json":
        "ae97c974cb42147ee9f24a0d4ccc38e5c195f8f1237d7a9643d2835d6312c7fd",
    "self-native.train.json":
        "e3ee5a18e2fe7e15055a2ccb8f7aa2a0e88651866fe787c747a5dc2809f72749",
    "self-one-vs-all.model.json":
        "9a1324d7c7753e9b678e2597762f026d78ae5f591dac5ab13b11e4285bcc6448",
    "self-one-vs-all.train.json":
        "82dca957d95d7c8c136610375158f279413949945c1e731b83f3edc578edaa72",
    "self-one-vs-one.model.json":
        "68cfc2f81362b142d9dc8117275cfcc3d3f5eb00bb2c32cebb3bc71f9282aaa0",
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
        "7c0ecfafef2e1887d6c81b6bccdc8e2a4affee49becb2eebef9deb14b0db4554",
    "sweep-single-one-vs-one.json":
        "2bc4c4cba195f34c4d7298af10b5f54ea67009d36fc8f28c4ac4943c2281c545",
    "tags-native.eval.json":
        "945afc3bbd0b10b5f9a3cc0bfcbdfaf54b74d21095b3834f76700b2d0eb3840a",
    "tags-native.margins":
        "9c93775e66a399b063b16dd5e82faf453ff170089a2d83992d10c157925c282b",
    "tags-native.model.json":
        "08164eaf355b3b502fdd9a9c283c1810df574c5b32be2effc5dc43d409d6c1bd",
    "tags-native.train.json":
        "bbee65b3c396fdd0b5359038cdbf8962bdcb2ea974f6e154723e6edf29daa24b",
    "tags-one-vs-all.eval.json":
        "03533aad053fd51e1801c91825af6ac3b99fab38d604ef8f5ddd7ccb0307b269",
    "tags-one-vs-all.margins":
        "41c8d70a6a7e3f15602002bb038a480a6238247c4dcce52faf3daf9eeee3a163",
    "tags-one-vs-all.model.json":
        "97931aa03a44ee34198c34a11567812a954f8cc8dbaa5f1967a589a859a5599f",
    "tags-one-vs-all.train.json":
        "c6debcf60ff1cfebd82489236e480932c6431c38d79584cfc12316b0e1a10bf4",
    "tags-one-vs-one.eval.json":
        "dce50f4262618a5a0ad6551f2821e9aa8cfa8da9a960e656b6d2c38a0e1445e3",
    "tags-one-vs-one.margins":
        "d8b722adfa1b75281338e032863d58569334418b2707effaf676ccdd32a8642b",
    "tags-one-vs-one.model.json":
        "ffb22ca0412e8ff239bef0607dde85a89fdd18a1676b156e8073afc967a77ccb",
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
