"""Golden sha256 digests of compiled and recompiled images.

An oracle independent of any second implementation: the digests were
recorded from the optimizer and backend as they stood, so any change to
the fixed pass schedule, the compiler personalities, the refinement
pipeline or lowering that alters a single output byte fails here.

* ``compile_source`` over all ten workloads under three personalities
  exercises ``optimize_module`` at O3 (with and without the newer
  personality's passes) and the O0 path.
* ``wytiwyg_recompile`` over the three examples (with the inputs their
  static-check smoke uses) and over xalancbmk under the two legacy
  personalities exercises canonicalize, symbolize, optimize and lower.
* ``wytiwyg_recompile`` over several *distinct* inputs (the examples
  under three personalities, and gcc on its ref run plus extra
  expression runs) pins how the replay stages fold the instrumented
  runs of every input into one set of layouts and signatures.

If a change is *meant* to alter output, regenerate the digests and say
so in the change description.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.cc import compile_source
from repro.core.driver import wytiwyg_recompile
from repro.workloads import WORKLOADS

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

COMPILE_DIGESTS = {
    ("gcc12", "3"): {
        "bzip2": "5d59b23fe0a05afbf9ceb0fc2f23fb101d68979cca53538712d17ecb8fef78f6",
        "gcc": "201a8177d53b7a443bd30a52cb58797a604c33ef62f72eb7aab170c4b627faa8",
        "mcf": "8cc9e5c1f345805688cbc245e09b9716919cc81e8cafb586b5d3fcaa384e2061",
        "gobmk": "e2081c59d3ed80078591f9651422f419778da957a91fd922ffb5279bb15feba2",
        "hmmer": "ad3c138550c5f0ecbc45fb586480647806533bf34066db0ec09ea6de60ae6fc6",
        "sjeng": "8684bc9ec60d1e0f6240921afc63aaa03ee8aaed5119c8bc0fdcd20c671cb992",
        "libquantum": "7151ea11cc5ae39cb352b49f5eb7afa9425424df93eb39c457ecf124518f1226",
        "h264ref": "4a63e123e1f68b76fc500516761f7e32b678272711dc464a21b82ac7de559bfa",
        "astar": "1ee0933416c5c995c759da2b40298bfc630ab95fac495275bc8711de899f1c0e",
        "xalancbmk": "6e8d27e50a7b3306967249835557ac04f119f5e5d51cf5cb3332a5ceae1d0966",
    },
    ("gcc44", "3"): {
        "bzip2": "9e6b93cb47667439ca06791cc08dc1baf6e9a0ad00201699cdedc6c6d0d91ca3",
        "gcc": "4aaa35510a93d4823b825b53fb2c34f169ea1f452ca3ddbe895ed9ac7c608d4a",
        "mcf": "2dc8971081a191186eaab760be240b2ff73ba1273e26b57b0364ed6c95eaed02",
        "gobmk": "8eec3d4ad2330e476fa85c6aa254969fd0777a177dd5b1d30137858983db59cd",
        "hmmer": "d664860528358f7581d04fba51e6cc3d7b7e7ebe3a0831f48ca7821129244bbf",
        "sjeng": "b72b3b640355013d9ebecc717f23ff1f36256a1b7d371e01d5b44e7553fdfb65",
        "libquantum": "a127a437a4c6c0dcf45f6be3a37f74eb314f77765c27925794fcd24f981768c4",
        "h264ref": "12d459f94c5c87dbc80bfa1e692c2da1a48e44b80f674045255c3a7673fa2cb5",
        "astar": "b0572db3ab1d717768f654401d787958c1224a6346766fa4fd02b0d37338f1f8",
        "xalancbmk": "2b6a6391762bf2b99ce43fa4cbd42abdb124685079c45d169b398282d4782578",
    },
    ("gcc12", "0"): {
        "bzip2": "45673dda6f6343989ba246d86a8cf7c3efcb249bb2e163d90e8ca869f6dad9d2",
        "gcc": "da084525c93be11652edd29e236feb58aac561c598439e8d0b9000d32762b0b5",
        "mcf": "ceb6c57f762537b3e49af06813423dac3bac639dc9e9bb4cdf2a6bfab5537da1",
        "gobmk": "d34967e3a0ac981e1e07d761779f5e7d6cf8609bcf9391061c0d25757ae6fc4f",
        "hmmer": "2803255d9afd22d8a53d7b679f4a9ca1efce421e6349fe659a7b4133711ad644",
        "sjeng": "33d8ce7829a96ef242a9c9d0cd9446eab9873b455b2158555d7561292356ea8b",
        "libquantum": "a0fb7604703d29b0bfeea2aa9eaea72815971c6d9ca441ff975178b5a3e4d608",
        "h264ref": "ace640992e1d6fde5ac35d698ebd6d88bf91a4567efac09d8e5ac6dfd877b28b",
        "astar": "9488ff2b1bb3cf7a03b5ffb4d3b59c2d443d2c3d6b00e411dd786fba4b045bdd",
        "xalancbmk": "8d4a7957ae165bf1a0dfc0721df4843b4e2c01a857aad7bd6c7eec600fc8e4d2",
    },
}

#: Example programs, recompiled on the inputs of their static-check
#: smoke (compiled with the CLI's default gcc12 -O3, named by stem).
EXAMPLE_DIGESTS = {
    "quickstart": ([[5]], "108e1b54a8cbc19e041399a75200de0468ced773fb60752f3cc21730e838ffab"),
    "escape": ([[3]], "4b35770b9248f8b01d7803d1dd47bab903f12bb75678077309a9ed558ea253ea"),
    "undertrace": ([[3]], "0473d7b39e7a71796fabc8b6d2c06c6e722c1d510d4b95ff48bf27dc0be3cf4e"),
}

#: Example programs, recompiled on three distinct inputs each.
MULTI_INPUT_EXAMPLES = {
    "quickstart": [[5], [-2], [40]],
    "escape": [[3], [8], [5]],
    "undertrace": [[3], [16], [9]],
}

MULTI_INPUT_EXAMPLE_DIGESTS = {
    ("gcc12", "3"): {
        "quickstart": "108e1b54a8cbc19e041399a75200de0468ced773fb60752f3cc21730e838ffab",
        "escape": "3079e10df025000de4e7cfc8afa8d94b97a5707fd637d0d18c9fc712d1c328cb",
        "undertrace": "0b913a56dd3c97261792616695944ea4d0fb2b3a0c0a361f0a86dcf0da580b9c",
    },
    ("gcc44", "3"): {
        "quickstart": "156030ac2b43537905f7693cd0e4eb236a7b6ad8ad4504dd4c44a4fc69033bd6",
        "escape": "b34297e23cbed68be1ca617dd78fc08a9bfdb89d3d5a32db8e4fb32bd1eae82e",
        "undertrace": "31f1f01203772c26cd15eb4c422356e0dd26ea48b8b94a4df9b434951565e7b9",
    },
    ("gcc12", "0"): {
        "quickstart": "3597beae4803668019be6207b861109a6832de496eb1db7da90b8046a9d738a1",
        "escape": "c5c0ddf2ea3b7a0b1bc9f1ae84428518c301c67e5ca29d30bd34952782b12655",
        "undertrace": "491629b7ecd85ed77bee6b61b26ab4fd2aa7fea52010adba4403c1498a43c6f3",
    },
}

#: Expression runs recompiled beside gcc's ref run.
GCC_EXTRA_INPUTS = [
    [b"3 * (4 + 5) - 6 / 2"],
    [b"100 % 7 + 2 * 2", b"(1 + 1) * (2 + 2) * (3 + 3)"],
    [b"999 - 111 * 3 + (42 / 6)", b"7 * 7 - 7", b"((8 + 2) * 5) % 13"],
]

GCC_MULTI_INPUT_DIGEST = (
    "0f781bcb7fae0ed264406a608e6d8510b2094e7ff90bd04d7434f82c39593362")

#: xalancbmk on its ref inputs under the two legacy personalities.
WORKLOAD_RECOMPILE_DIGESTS = {
    ("gcc44", "3"): "cb5b5a97b04b8bc026cf2b495ec51e96734caa0a31f4ec6d38cdffb3d59453d1",
    ("gcc12", "0"): "236547def8a402785d82d4e072029c405a0cc585afa95184b4ab8b82e2ea204e",
}


def _digest(image) -> str:
    return hashlib.sha256(image.to_json().encode()).hexdigest()


@pytest.mark.parametrize("compiler,opt", sorted(COMPILE_DIGESTS))
def test_compile_digests(compiler, opt):
    expected = COMPILE_DIGESTS[(compiler, opt)]
    got = {name: _digest(compile_source(w.source, compiler, opt, name))
           for name, w in WORKLOADS.items()}
    assert got == expected


@pytest.mark.parametrize("name", sorted(EXAMPLE_DIGESTS))
def test_example_recompile_digests(name):
    inputs, expected = EXAMPLE_DIGESTS[name]
    source = (EXAMPLES / f"{name}.c").read_text()
    image = compile_source(source, "gcc12", "3", name)
    result = wytiwyg_recompile(image, inputs, check=False)
    assert not result.fallback
    assert _digest(result.recovered) == expected


@pytest.mark.parametrize("compiler,opt",
                         sorted(WORKLOAD_RECOMPILE_DIGESTS))
def test_xalancbmk_recompile_digests(compiler, opt):
    workload = WORKLOADS["xalancbmk"]
    image = compile_source(workload.source, compiler, opt, "xalancbmk")
    result = wytiwyg_recompile(image, workload.inputs(), check=False)
    assert not result.fallback
    assert _digest(result.recovered) == WORKLOAD_RECOMPILE_DIGESTS[
        (compiler, opt)]


@pytest.mark.parametrize("compiler,opt,name", sorted(
    (compiler, opt, name)
    for (compiler, opt), digests in MULTI_INPUT_EXAMPLE_DIGESTS.items()
    for name in digests))
def test_example_multi_input_recompile_digests(compiler, opt, name):
    source = (EXAMPLES / f"{name}.c").read_text()
    image = compile_source(source, compiler, opt, name)
    result = wytiwyg_recompile(image, MULTI_INPUT_EXAMPLES[name],
                               check=False)
    assert not result.fallback
    assert _digest(result.recovered) == MULTI_INPUT_EXAMPLE_DIGESTS[
        (compiler, opt)][name]


def test_gcc_multi_input_recompile_digest():
    workload = WORKLOADS["gcc"]
    image = compile_source(workload.source, "gcc12", "3", "gcc")
    result = wytiwyg_recompile(image, workload.inputs() + GCC_EXTRA_INPUTS,
                               check=False)
    assert not result.fallback
    assert _digest(result.recovered) == GCC_MULTI_INPUT_DIGEST
