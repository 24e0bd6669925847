"""Every exception type of the package survives pickling, as a pool job's
error must to reach the CLI's exit code and stderr line."""
import pickle

from predprey import errors
from predprey.errors import (
    ConfigError,
    GainConstraintError,
    InfeasibleSetpointError,
    NumericalError,
    PredPreyError,
    VerificationFailure,
)


def test_every_error_survives_pickling():
    samples = [
        PredPreyError("base"),
        ConfigError("[model] n_cells must be positive"),
        GainConstraintError("eps > 0 is violated"),
        InfeasibleSetpointError(0.3, (0.0, 0.2)),
        NumericalError("march diverged", t=0.25, reason="nan_guard"),
        VerificationFailure("verification failed: 05"),
    ]
    # one sample of each class errors.py defines: a new class needs one here
    assert {type(err) for err in samples} == {
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__ == errors.__name__}
    for err in samples:
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert str(back) == str(err)
        assert vars(back) == vars(err)
    assert vars(samples[3]) == {"u_star": 0.3, "interval": (0.0, 0.2)}
    assert vars(samples[4]) == {"t": 0.25, "reason": "nan_guard"}
