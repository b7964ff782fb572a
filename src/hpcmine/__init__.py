"""Process-mining toolkit for SLURM-style scheduler queues.

Observes a queue through periodic snapshots, extracts a job event log by
diffing, assigns case identifiers via explicit dependency chains or
account-group keys, and discovers frequency/performance-annotated
directly-follows models.

The package exports no names of its own: import its modules, as in
``from hpcmine import correlation, eventlog, observer``. ``import hpcmine``
loads none of them.
"""

__version__ = "0.1.0"
