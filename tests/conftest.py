import os

import pytest


@pytest.fixture
def no_child_left():
    """A check that this process has no child process left, running or not
    yet waited for: os.waitpid(-1, WNOHANG) finds none."""

    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    return check
