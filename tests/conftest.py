"""Settings shared by every test module."""

try:
    import resource
except ImportError:  # not on every platform
    resource = None

# The suite peaks well under 100 MB resident, but a search that a broken
# detector lets grow can take gigabytes before any timeout stops it.  A
# soft cap on the address space turns that growth into a MemoryError.
ADDRESS_SPACE_CAP = 2 << 30


def pytest_configure(config):
    """Lower the soft RLIMIT_AS to the cap; a lower limit stays as it is."""
    if resource is None or not hasattr(resource, "RLIMIT_AS"):
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
