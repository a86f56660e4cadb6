"""Empty: the paper's two maps are kernels of :mod:`decobs.stacks` (``observe_stack``, and
``rho * G`` with ``response_gram_stack``), and the tests write out their joint isometry.
The module stays only because the benchmark's ``--trace 1`` imports it as a listed layer.
"""
