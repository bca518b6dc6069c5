import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

from heartcbr.cases import validate_case
from heartcbr.synthetic import write_synthetic_dataset

REPO_ROOT = Path(__file__).resolve().parent.parent

# The public 1025-row dataset is not redistributed with this repo; tests
# that need it look here (see README for how to provide it).
REAL_DATASET = Path(os.environ.get("HEART_CSV", REPO_ROOT / "data" / "heart.csv"))


def subprocess_env(**overrides):
    """Environment for a child Python process that imports heartcbr from src/."""
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **overrides)

BASE_RAW = {
    "age": 54,
    "sex": 1,
    "cp": 0,
    "trestbps": 130,
    "chol": 250,
    "fbs": 0,
    "restecg": 1,
    "thalach": 150,
    "exang": 0,
    "oldpeak": 1.0,
    "slope": 1,
    "ca": 0,
    "thal": 2,
    "target": 1,
}


def make_raw(**overrides):
    raw = dict(BASE_RAW)
    raw.update(overrides)
    return raw


def make_case(**overrides):
    case, _ = validate_case(make_raw(**overrides), "lenient")
    return case


def in_domain_raw(with_target: bool = True):
    """Strategy for raw records whose values all lie in the documented domains."""
    fields = {
        "age": st.integers(1, 100),
        "sex": st.sampled_from([0, 1]),
        "cp": st.sampled_from([0, 1, 2, 3]),
        "trestbps": st.integers(80, 220),
        "chol": st.integers(100, 600),
        "fbs": st.sampled_from([0, 1]),
        "restecg": st.sampled_from([0, 1, 2]),
        "thalach": st.integers(60, 220),
        "exang": st.sampled_from([0, 1]),
        "oldpeak": st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        "slope": st.sampled_from([0, 1, 2]),
        "ca": st.sampled_from([0, 1, 2, 3]),
        "thal": st.sampled_from([1, 2, 3]),
    }
    if with_target:
        fields["target"] = st.sampled_from([0, 1])
    return st.fixed_dictionaries(fields)


def cases_strategy(min_size: int = 1, max_size: int = 12, with_target: bool = True):
    return st.lists(
        in_domain_raw(with_target).map(lambda raw: validate_case(raw, "strict")[0]),
        min_size=min_size,
        max_size=max_size,
    )


@pytest.fixture(scope="session")
def synthetic_csv(tmp_path_factory):
    """120-row schema-valid dataset with a couple of out-of-domain codes."""
    path = tmp_path_factory.mktemp("data") / "synthetic.csv"
    write_synthetic_dataset(path, 120, seed=5, out_of_domain=2)
    return path


@pytest.fixture(scope="session")
def clean_synthetic_csv(tmp_path_factory):
    """Fully in-domain synthetic dataset (strict parsing succeeds)."""
    path = tmp_path_factory.mktemp("data") / "synthetic_clean.csv"
    write_synthetic_dataset(path, 100, seed=11, out_of_domain=0)
    return path


requires_real_dataset = pytest.mark.skipif(
    not REAL_DATASET.exists(),
    reason=(
        "public 1025-row heart.csv not present; place it at data/heart.csv "
        "or point HEART_CSV at it (see README)"
    ),
)
