#!/usr/bin/env python3
"""Checks the benchmark's neutral edit against the verifier's own plan.

    python3 perfbench/test_neutral_edit.py

For every procedure the workloads may edit (edit-loop's and recheck-green's
edit pool, batch-cold's edited module), the edited module must parse, and
planning it must change content keys (Journal::contentKey, printed by
`pbench keys`) of the edited procedure's obligations and of no other's.
Builds the harness the way run.py does first.
"""

import json
import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def plan_keys(path):
    code, out, err = bench.run([bench.exe('pbench'), 'keys', path], timeout=120)
    if code != 0:
        raise AssertionError('pbench keys %s failed: %s' % (path, err))
    return [tuple(line.split('\t')) for line in out.splitlines()]


class NeutralEditTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build()
        cls.dir = bench.fresh_dir('test-neutral-edit')
        with open(os.path.join(bench.HERE, 'green.json')) as f:
            pool = json.load(f)['edit_pool']
        text = bench.module_text(bench.BATCH_EDITED)
        pool[bench.BATCH_EDITED] = bench.PROC_RE.findall(text)
        cls.pool = pool

    def test_edit_dirties_only_the_edited_procedure(self):
        rng = random.Random('test-neutral-edit')
        for module, procs in sorted(self.pool.items()):
            text = bench.module_text(module)
            stem = os.path.join(self.dir, module.replace('/', '_'))
            before = plan_keys(bench.write_file(stem, text))
            self.assertTrue(before, module)
            for proc in procs:
                with self.subTest(module=module, proc=proc):
                    edited = bench.neutral_edit(text, proc, rng)
                    self.assertNotEqual(edited, text)
                    after = plan_keys(bench.write_file(stem + '.edited', edited))
                    self.assertEqual([(p, n) for p, n, _ in after],
                                     [(p, n) for p, n, _ in before])
                    # Loop bodies start new basic paths, so only the paths
                    # through the procedure's entry are dirtied.
                    dirtied = {p for (p, _, k0), (_, _, k1) in zip(before, after)
                               if k0 != k1}
                    self.assertEqual(dirtied, {proc})


if __name__ == '__main__':
    unittest.main()
