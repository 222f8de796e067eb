import json

import numpy as np
import pytest

from loopwalk.model import (
    ConfigError,
    CorrelationMatrix,
    CouplingMatrix,
    DeviceConfig,
    EigenSystem,
    Permutation,
    UnsupportedConfigError,
    permutation_for,
    physical_memory_bytes,
    require_memory,
    uniform_angle,
)


# ---- permutations --------------------------------------------------------


def test_identity_permutation():
    p = Permutation.identity(5)
    assert p.is_identity()
    assert [p(j) for j in range(1, 6)] == [1, 2, 3, 4, 5]


def test_mirror_examples():
    p = Permutation.mirror(7)
    assert p(1) == 7
    assert p(4) == 4
    assert p(7) == 1


def test_mirror_is_involution():
    for n in (2, 5, 12, 21):
        p = Permutation.mirror(n)
        assert all(p(p(j)) == j for j in range(1, n + 1))


def test_cyclic_examples():
    p = Permutation.cyclic(12, 4)
    assert p(10) == 2
    assert p(1) == 5
    assert Permutation.cyclic(6, 0).is_identity()


@pytest.mark.parametrize("n,c", [(12, 4), (12, 5), (7, 3), (10, 2)])
def test_cyclic_order(n, c):
    import math

    order = n // math.gcd(n, c)
    p = Permutation.cyclic(n, c)
    q = Permutation.identity(n)
    for _ in range(order):
        q = Permutation(tuple(p(q(j)) for j in range(1, n + 1)))
    assert q.is_identity()


def test_inverse_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        mapping = tuple(int(v) + 1 for v in rng.permutation(n))
        p = Permutation(mapping)
        pinv = p.inverse()
        assert all(pinv(p(j)) == j for j in range(1, n + 1))
        assert all(p(pinv(j)) == j for j in range(1, n + 1))


def test_permutation_matrix_moves_basis_vectors():
    p = Permutation.cyclic(5, 2)
    m = p.matrix()
    for k in range(1, 6):
        e = np.zeros(5)
        e[k - 1] = 1.0
        image = m @ e
        assert image[p(k) - 1] == 1.0
        assert image.sum() == 1.0
    # transpose is the inverse
    assert np.array_equal(m.T, p.inverse().matrix())


def test_bad_permutation_rejected():
    with pytest.raises(ConfigError):
        Permutation((1, 2, 2))
    with pytest.raises(ConfigError):
        Permutation((0, 1, 2))


def test_out_of_range_index():
    p = Permutation.identity(3)
    with pytest.raises(ValueError):
        p(4)
    with pytest.raises(ValueError):
        p(0)


# ---- coupling matrices -----------------------------------------------------


def test_coupling_requires_exact_symmetry():
    g = np.zeros((3, 3))
    g[0, 1] = 1.0
    with pytest.raises(ConfigError, match="symmetric"):
        CouplingMatrix(3, g)
    g[1, 0] = 1.0
    cm = CouplingMatrix(3, g)
    assert not cm.g.flags.writeable


def test_coupling_rejects_nonfinite():
    g = np.eye(2)
    g[0, 0] = np.nan
    with pytest.raises(ConfigError, match="finite"):
        CouplingMatrix(2, g)


def test_coupling_shape_check():
    with pytest.raises(ConfigError):
        CouplingMatrix(3, np.eye(2))


# ---- eigensystems ---------------------------------------------------------


def test_eigensystem_rejects_nonunitary():
    with pytest.raises(ValueError, match="unitary"):
        EigenSystem(np.array([1.0, 2.0]), np.eye(2) * 2.0)


def test_eigensystem_reconstruct():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6))
    g = a + a.T
    lam, v = np.linalg.eigh(g)
    es = EigenSystem(lam, v.astype(complex))
    assert es.reconstruction_error(g) < 1e-12


def test_eigensystem_dict_round_trip():
    lam = np.array([2.0, 0.0, -2.0, 0.0])
    phase = np.exp(-2j * np.pi * np.outer(np.arange(4), np.arange(4)) / 4) / 2.0
    es = EigenSystem(lam, phase)
    es2 = EigenSystem.from_dict(json.loads(json.dumps(es.to_dict())))
    assert np.allclose(es2.eigenvalues, lam)
    assert np.allclose(es2.eigenvectors, phase)


# ---- device configuration -----------------------------------------------------


def test_theta_broadcast_and_uniform():
    cfg = DeviceConfig(topology="cylinder", n_modes=4, theta=0.3)
    assert cfg.theta == (0.3, 0.3, 0.3, 0.3)
    assert uniform_angle(cfg.theta) == 0.3


def test_per_guide_theta_blocks_closed_form():
    cfg = DeviceConfig(topology="cylinder", n_modes=3, theta=(0.1, 0.2, 0.3))
    with pytest.raises(UnsupportedConfigError):
        uniform_angle(cfg.theta)


@pytest.mark.parametrize(
    "cfg",
    [
        DeviceConfig(topology="cylinder", n_modes=21, theta=np.pi / 4),
        DeviceConfig(topology="moebius", n_modes=12, theta=0.5, tau=2.0, omega=1.5),
        DeviceConfig(
            topology="twisted_circle",
            n_modes=6,
            theta=0.4,
            shift_c=2,
            g_vector=(0.0, 1.0, 0.5, 0.0, 0.5, 1.0),
        ),
        DeviceConfig(
            topology="custom",
            n_modes=2,
            theta=(0.2, 0.7),
            custom_g=np.array([[0.0, 1.0], [1.0, 0.0]]),
            custom_perm=(2, 1),
        ),
    ],
)
def test_device_json_round_trip(cfg):
    back = DeviceConfig.from_json(cfg.to_json())
    assert back.topology == cfg.topology
    assert back.n_modes == cfg.n_modes
    assert back.theta == cfg.theta
    assert back.tau == cfg.tau and back.omega == cfg.omega
    assert back.shift_c == cfg.shift_c
    assert back.g_vector == cfg.g_vector
    if cfg.custom_g is None:
        assert back.custom_g is None
    else:
        assert np.array_equal(back.custom_g, cfg.custom_g)
    assert back.custom_perm == cfg.custom_perm


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        DeviceConfig.from_json('{"topology": "cylinder", "n_modes": 3, "theta": 0.1, "Nmodes": 3}')


def test_config_requires_core_keys():
    with pytest.raises(ConfigError, match="missing"):
        DeviceConfig.from_json('{"topology": "cylinder", "n_modes": 3}')


def test_validate_flags_bad_coupler_angle():
    with pytest.raises(ConfigError, match="coupler angle"):
        DeviceConfig(topology="cylinder", n_modes=3, theta=2.0)


def test_validate_flags_circulant_asymmetry():
    with pytest.raises(ConfigError, match="circulant symmetry"):
        DeviceConfig(
            topology="twisted_circle",
            n_modes=4,
            theta=0.3,
            shift_c=1,
            g_vector=(0.0, 1.0, 0.0, 2.0),  # g_2 != g_4
        )


def test_validate_accepts_good_devices():
    DeviceConfig(topology="cylinder", n_modes=21, theta=np.pi / 4)
    DeviceConfig(
        topology="twisted_circle",
        n_modes=12,
        theta=0.2,
        shift_c=4,
        g_vector=(0.0, 1.0) + (0.0,) * 9 + (1.0,),
    )


def test_validate_custom_topology():
    with pytest.raises(ConfigError, match="(?s)symmetric.*permutation"):
        DeviceConfig(
            topology="custom",
            n_modes=2,
            theta=0.1,
            custom_g=np.array([[0.0, 1.0], [2.0, 0.0]]),
            custom_perm=(1, 1),
        )


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("n_modes", dict(topology="moebius", n_modes=4.7)),
        ("n_modes", dict(topology="moebius", n_modes="5")),
        ("n_modes", dict(topology="moebius", n_modes=True)),
        ("shift_c", dict(topology="twisted_circle", n_modes=3, shift_c=1.5, g_vector=(0, 1, 1))),
        ("custom_perm", dict(topology="custom", n_modes=2, custom_g=np.eye(2), custom_perm=(1.0, 2.0))),
    ],
)
def test_counts_must_be_integers(field, kwargs):
    with pytest.raises(ConfigError, match=f"{field}: expected an integer"):
        DeviceConfig(theta=0.5, **kwargs)


def test_invalid_device_cannot_be_built():
    with pytest.raises(ConfigError, match=r"(?s)theta\[5\] = 2.0 outside.*tau must be positive"):
        DeviceConfig(topology="moebius", n_modes=5, theta=2.0, tau=-1.0)


def test_custom_g_accepts_flat_vector():
    cfg = DeviceConfig(
        topology="custom",
        n_modes=2,
        theta=0.1,
        custom_g=[0.0, 1.0, 1.0, 0.0],
        custom_perm=(1, 2),
    )
    assert cfg.custom_g.shape == (2, 2)


# ---- loop relabellings per topology ----------------------------------------------


def test_permutation_for_each_topology():
    assert permutation_for(
        DeviceConfig(topology="cylinder", n_modes=5, theta=0.1)
    ).is_identity()
    p = permutation_for(DeviceConfig(topology="moebius", n_modes=5, theta=0.1))
    assert [p(j) for j in range(1, 6)] == [5, 4, 3, 2, 1]
    q = permutation_for(
        DeviceConfig(
            topology="twisted_circle",
            n_modes=5,
            theta=0.1,
            shift_c=2,
            g_vector=(0.0, 1.0, 0.0, 0.0, 1.0),
        )
    )
    assert [q(j) for j in range(1, 6)] == [3, 4, 5, 1, 2]


def test_permutation_for_shift_out_of_range():
    with pytest.raises(ConfigError, match="shift_c = 5 outside 0..4"):
        DeviceConfig(
            topology="twisted_circle",
            n_modes=5,
            theta=0.1,
            shift_c=5,
            g_vector=(0.0, 1.0, 0.0, 0.0, 1.0),
        )


# ---- correlation matrix record ------------------------------------------------------


def _square(vals):
    return CorrelationMatrix(
        values=np.asarray(vals, dtype=float),
        step=1,
        delay=0,
        inputs=(1, 2),
        kind="quantum",
        rescaled=True,
    )


def test_correlation_matrix_checks():
    m = _square([[0.5, 0.1], [0.1, 0.5]])
    assert m.n_modes == 2
    with pytest.raises(ValueError):
        _square([[0.5, 0.1], [0.2, 0.5]])  # asymmetric
    with pytest.raises(ValueError):
        _square([[0.5, -0.1], [-0.1, 0.5]])  # negative entry


def test_correlation_matrix_dict_round_trip():
    m = _square([[0.25, 0.0], [0.0, 0.75]])
    d = json.loads(json.dumps(m.to_dict()))
    back = CorrelationMatrix.from_dict(d)
    assert np.array_equal(back.values, m.values)
    assert back.step == m.step and back.delay == m.delay
    assert back.inputs == m.inputs
    assert back.kind == m.kind and back.rescaled == m.rescaled


# ---- JSON records and the memory rule ------------------------------------------

_CORE = {"topology": "cylinder", "n_modes": 3, "theta": 0.1}


def test_device_json_null_in_an_optional_key_is_the_key_left_out():
    cfg = DeviceConfig.from_json(json.dumps({**_CORE, "shift_c": None, "custom_G": None}))
    assert cfg == DeviceConfig.from_json(json.dumps(_CORE))
    assert cfg.shift_c is None and cfg.custom_g is None


@pytest.mark.parametrize("key", ["custom_g", "n_mode", "Theta", "G"])
def test_device_json_refuses_an_unknown_key_naming_it(key):
    with pytest.raises(ConfigError) as err:
        DeviceConfig.from_json(json.dumps({**_CORE, key: 0}))
    assert str(err.value) == f"unknown device config keys: [{key!r}]"


@pytest.mark.parametrize("key", ["topology", "n_modes", "theta"])
def test_device_json_names_each_missing_required_key(key):
    d = {k: v for k, v in _CORE.items() if k != key}
    with pytest.raises(ConfigError) as err:
        DeviceConfig.from_json(json.dumps(d))
    assert str(err.value) == f"missing device config keys: [{key!r}]"


@pytest.mark.parametrize("text", ["[]", json.dumps([_CORE]), "3", "null"])
def test_device_json_must_be_an_object(text):
    with pytest.raises(ConfigError, match="^device config JSON must be an object$"):
        DeviceConfig.from_json(text)


def test_device_json_that_does_not_parse_is_config_error():
    with pytest.raises(ConfigError, match="^device config JSON is not valid: "):
        DeviceConfig.from_json('{"topology": ')


# a device's JSON with a key its topology does not read, and that key
_UNREAD = [
    ("cylinder", {"shift_c": 1}, "shift_c"),
    ("moebius", {"g_vector": [0.0, 1.0, 1.0]}, "g_vector"),
    ("cylinder", {"custom_G": [0.0] * 9}, "custom_G"),
    ("moebius", {"custom_perm": [1, 2, 3]}, "custom_perm"),
    ("custom", {"custom_G": [0.0] * 9, "custom_perm": [1, 2, 3], "shift_c": 0}, "shift_c"),
    ("twisted_circle", {"shift_c": 1, "g_vector": [0.0, 1.0, 1.0], "custom_perm": [1, 2, 3]},
     "custom_perm"),
]


@pytest.mark.parametrize("topology, extra, key", _UNREAD)
def test_field_on_a_topology_that_does_not_read_it_is_refused(topology, extra, key):
    d = {"topology": topology, "n_modes": 3, "theta": 0.5, **extra}
    owner = "twisted_circle" if key in ("shift_c", "g_vector") else "custom"
    message = f"invalid device config:\n.*{key} is read by the {owner} topology only"
    with pytest.raises(ConfigError, match=message):
        DeviceConfig.from_json(json.dumps(d))
    with pytest.raises(ConfigError, match=message):
        DeviceConfig(**{("custom_g" if k == "custom_G" else k): v for k, v in d.items()})


def test_require_memory_raises_the_given_error_with_one_sentence():
    avail = physical_memory_bytes()
    require_memory(avail, "the job needs", "its arrays", ConfigError)
    with pytest.raises(UnsupportedConfigError) as err:
        require_memory(avail + 1, "the job needs", "its arrays", UnsupportedConfigError)
    assert str(err.value) == (
        f"the job needs {(avail + 1) / 1e9:.1f} GB for its arrays, "
        f"more than the {avail / 1e9:.1f} GB of physical memory"
    )
