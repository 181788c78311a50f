from code_lines import code_lines


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    source = ('"""Module docstring,\n'
              'two lines."""\n'
              "\n"
              "# a comment\n"
              "X = 1  # code with a comment\n"
              "\n"
              "def f(a,\n"
              "      b):\n"
              '    """One line."""\n'
              "    text = '''a string\n"
              "    that is no docstring'''\n"
              "    return text\n"
              "\n"
              "class C:\n"
              '    """Class\n'
              '    docstring."""\n'
              "    y = 2\n")
    # X, the two lines of f's signature, the string's two lines, the return,
    # class C and y
    assert code_lines(source) == 8
