"""Pinned result bytes of the agent pipeline on small non-default configs.

The benchmark's digests cover only the default settings.  These pin the
sha256 of every result file (manifests carry timestamps and are left out)
of train, eval, duel, both score maps, route and pattern on configs that
reach the edges: a step budget shorter than the pattern paths, diameter 1,
a cloud as wide as the grid, and several clouds with a discount; and of
both plain Q-learning demos, without and with a discount.
"""
import hashlib
import json

import pytest

from hmc_search.cli import dispatch

CONFIGS = {
    "short_budget": {"grid_length": 8, "pollution_diameter": 3, "max_steps": 12,
                     "num_episodes": 40},
    "diameter_1": {"grid_length": 6, "pollution_diameter": 1, "max_steps": 60,
                   "num_episodes": 40, "option_length": 1},
    "diameter_is_grid": {"grid_length": 5, "pollution_diameter": 5, "max_steps": 20,
                         "num_episodes": 30},
    "clouds_discount": {"grid_length": 11, "pollution_diameter": 4, "max_steps": 90,
                        "num_episodes": 40, "num_clouds": 2, "best_learn_value": 2,
                        "discount_rate": 0.5, "option_length": 2},
}
SEED = 3
STAGES = (["train"], ["eval", "--episodes", "300"], ["duel", "--runs", "300"],
          ["scoremap", "--opponent", "snake"], ["scoremap", "--opponent", "spiral"],
          ["route", "--episodes", "300"], ["pattern"])

# Recorded on the code as it was before clouds were scored per center.
GOLDEN = {
    "clouds_discount": {
        "duels.csv":
            "d032f3215ec17b1d5a3b33692ec955f4886bf74e6dda82bb8a537ef78e6edbc0",
        "eval_steps.csv":
            "f8982f91e00a642b3ff264e13bb4e9f7798cd0454435acd8bd15208c27a18bcf",
        "qtable.csv":
            "315cd1a7238a8a4e56e52ac04141741f4bdcde11e1a1410bfc2475b25a048fc7",
        "route.csv":
            "1eb17489037b9dc573bca47624692e447e9586c6371c15e594533442d2cbfa75",
        "scoremap_snake.csv":
            "d705203dda03d9d72ca25e5a9943acee9334421bfc4155e3aff4d8b7de286c16",
        "scoremap_spiral.csv":
            "b53174afe7800c601587c454181b95ee751e71cdf19981a17ae69b17df83694e",
        "snake.csv":
            "1fa72294936dc9adf61b54bd1865158c60b2c0003904a90a4b72e0a4e6f2b8f4",
        "snake_steps.csv":
            "61a18a56a08b7abf1f060659a8cc4783bbfa8574648d822d74a5c243c03fe9ef",
        "spiral.csv":
            "2b372252c7da3f2bafe4158c1357b8c8d9f0b6f419f973f9f9f66011f43d5cf5",
        "spiral_steps.csv":
            "838eb8ece894e973144b12af8dc81f0f2054fbed9f86e018e25e1f5bcf20f674",
        "train_report.csv":
            "437eaf30a251bf32d2e34daad6b66749bb047a5e8c4ebbb94749e78664c4a1a9",
    },
    "diameter_1": {
        "duels.csv":
            "06d66432176915cfd2e1ab5d7077fb15ef62f55ac7e7af368d1a7f76d50c0972",
        "eval_steps.csv":
            "017726033c32c6915345d09d72d393b8b0e648961f0ef70a261793955ae27930",
        "qtable.csv":
            "78a76a7478e0c456b4c7d242521cac0e642c1e0804d6e0fc4d2f73dd45fc887f",
        "route.csv":
            "b2b2807a670db58e3931c63365b77fa1d88a0f784fba258c2b95fc0fcd91a702",
        "scoremap_snake.csv":
            "fe79df7ec9d4b4e25d4ef89df4ae57612603c410ca50adc52a85e42745f80111",
        "scoremap_spiral.csv":
            "eac18f7db5eec5132b1756c4553943a34ce72baa49b00c522008c3c539a068b2",
        "snake.csv":
            "ed73bf99ac40422c4c728b41ac3221c4f5d473dc912eb0d379329555126cfee2",
        "snake_steps.csv":
            "12110e9cb65e849810ca7f133f026bbf33fbf21ebbfadb93f9f76a271b5b1892",
        "spiral.csv":
            "b8f1197d8c1f0b9ced5e53ebf284c6f7dbb88885e7b11a396af3742468d44ac2",
        "spiral_steps.csv":
            "048b483be74dc0106b532f635d7d0575b3ee2e62b3eefb777733e93524e4e28b",
        "train_report.csv":
            "f3ee60239d260d0082efb509376353783ae14cbaaaf7a9f036e37b5f395d8ff7",
    },
    "diameter_is_grid": {
        "duels.csv":
            "40267a323eec52adb11bf536359974c61829c49a9a9089621c5db20beca2d6e4",
        "eval_steps.csv":
            "e3a97f2627490828835dfda9163e5b5b9adf61a78f77f3417e7df5205ff8e5e0",
        "qtable.csv":
            "b1fe5bd977542cf30c304c7c56daea0a3c100670ac2978731c8af299255e6b11",
        "route.csv":
            "a2ce6baa4e474f400057fa2f996c0cc8511df1c42b0d23309d8f172d32dcfe33",
        "scoremap_snake.csv":
            "3842fb3a6681a395866b60e3f9d1a36f81a8cb2fa96be6ca2f5ae8bd91932af5",
        "scoremap_spiral.csv":
            "3842fb3a6681a395866b60e3f9d1a36f81a8cb2fa96be6ca2f5ae8bd91932af5",
        "snake.csv":
            "5dc45215eedb9291baa964288915948de1502f1f9ae9b8e2ed3fa66eabf8f13b",
        "snake_steps.csv":
            "2e1062d39c7943fc27cad3c1045054a44b9983d3bda874db8b88a045cf171b77",
        "spiral.csv":
            "53f0b7904a9be60b84e1bfd1e398929e72bbdd2859fc52318d7a89859fb5516f",
        "spiral_steps.csv":
            "2e1062d39c7943fc27cad3c1045054a44b9983d3bda874db8b88a045cf171b77",
        "train_report.csv":
            "0e150d870919aadf6fd27641a73d08a7d0ecc49a2035a0733c78e567d5dc55a1",
    },
    "short_budget": {
        "duels.csv":
            "f2bdcca82674a3f24a79c3b453328fdd32db158a34433d2290ea3768dd246aff",
        "eval_steps.csv":
            "e24ff5548c40fdde5b8423c5f62ef556cf493c194529534c82ca8c60906b939a",
        "qtable.csv":
            "fb31752c4c25a04b16f90f4760eea9bfb7c82078cb0b6ff45658080c6867ca98",
        "route.csv":
            "115397f7dee478b16933879e2414883ff62be109ebc5558ed019d87ce9c1a88e",
        "scoremap_snake.csv":
            "eb29f6dddc926f2decdeed079eebcb500ca4d5bd1e8f9e4d3c4fab1d59850e76",
        "scoremap_spiral.csv":
            "e3df074691c0d94f5324d11b58a26bee31286931322bdeb042c8c554d96f7705",
        "snake.csv":
            "422f9f2ec13c24a0ad6522ee336bfcadce57270787b36b9f2f7865c2331cfce0",
        "snake_steps.csv":
            "44ed6d295c442ddfb958c5a1de0d248f6f2131e6f8191ad696b302b3943e15bf",
        "spiral.csv":
            "43f957c57729bdda45bc2eb5b7f64f8b7e55c5d3424524cb7f876fa3318a508a",
        "spiral_steps.csv":
            "caeaac97296bbaa08fb1aa63516e904280da5f9aaa6be767f4976ec0935b44b9",
        "train_report.csv":
            "d8f2daf97738c80a2a781d83c669c4b131b5711a9b1014727c76bdc948b197fc",
    },
}


def pipeline_digests(config: dict, out) -> dict[str, str]:
    path = out / "config.json"
    path.write_text(json.dumps(config))
    for stage in STAGES:
        argv = [*stage, "--config", str(path), "--seed", str(SEED), "--out", str(out)]
        assert dispatch(argv) == 0, argv
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.suffix == ".csv"}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pipeline_outputs_match_the_recorded_digests(name, tmp_path):
    assert pipeline_digests(CONFIGS[name], tmp_path) == GOLDEN[name]


# The plain Q-learning demos on two small configs, the second with a
# discount so that the demo kernel's bootstrap path is pinned too.  Their
# result files are the snapshot grids; the evaluation mean and the final
# maximum, which only the manifests hold, are pinned beside them.
DEMO_CONFIGS = {
    "demo_small": {"grid_length": 6, "pollution_diameter": 2, "max_steps": 30},
    "demo_discount": {"grid_length": 7, "pollution_diameter": 3, "max_steps": 40,
                      "discount_rate": 0.5},
}
DEMO_STAGES = (["demo-static"], ["demo-dynamic", "--episodes", "200"])

# Recorded on the code as it was before exploration compared raw words
# with an int bound.
DEMO_GOLDEN = {
    "demo_discount": {
        "demo_dynamic_snapshots.csv":
            "03166f83d9db5c93c87414937b54fe20208bc0a344d01ca4574105a2a43952d6",
        "demo_static_snapshots.csv":
            "7521a2f00e8a7376ea48d8a62bb8aa3ead82b2c0824e042cf927047c3b4d1056",
        "final_max_q": 4.143339737243358,
        "mean_eval_steps": 26.65,
    },
    "demo_small": {
        "demo_dynamic_snapshots.csv":
            "6d15665cf7cd45ec0bca882db505504d637700398aa7accf59eb8714afd8676a",
        "demo_static_snapshots.csv":
            "a844b812b799c062eb9c4388ef4e145fb98573d20c851c56ebf298c9e70fcd6a",
        "final_max_q": 99.75138130895033,
        "mean_eval_steps": 13.625,
    },
}


@pytest.mark.parametrize("name", sorted(DEMO_CONFIGS))
def test_demo_outputs_match_the_recorded_digests(name, tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(DEMO_CONFIGS[name]))
    for stage in DEMO_STAGES:
        argv = [*stage, "--config", str(tmp_path / "config.json"), "--seed", str(SEED),
                "--out", str(tmp_path)]
        assert dispatch(argv) == 0, argv
    found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(tmp_path.iterdir()) if p.suffix == ".csv"}
    static = json.loads((tmp_path / "manifest_demo-static.json").read_text())["metrics"]
    dynamic = json.loads((tmp_path / "manifest_demo-dynamic.json").read_text())["metrics"]
    found["final_max_q"] = static["final_max_q"]
    found["mean_eval_steps"] = dynamic["mean_eval_steps"]
    assert found == DEMO_GOLDEN[name]
