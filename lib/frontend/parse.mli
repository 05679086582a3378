(** Mini-Clan: parse C-style static-control loop programs into the IR.

    The paper obtains polyhedral representations of user code with the Clan
    analyzer; this module provides the equivalent for the loop programs used
    throughout the paper.  Grammar (';'-terminated declarations first):

    {v
    param n1, n2;
    input A[n1][n2], B[n1][n2];
    intermediate C[n1][n2];
    output E[n1][n2];

    for (i = 0; i < n1; i++)
      for (k = 0; k < n2; k++)
        C[i,k] = A[i,k] + B[i,k];
    for (i = 0; i < n1; i++)
      for (j = 0; j < n3; j++)
        for (k = 0; k < n2; k++)
          E[i,j] += C[i,k] * D[k,j];
    v}

    Statements are single assignments whose shape selects the kernel:
    [X = A + B] / [X = A - B] (element-wise), [X = A] (copy),
    [X += A * B] (gemm accumulation; suffix ['] on an operand transposes it,
    e.g. [U += X'[k,i] * X[k,j]]), [X = inv(A)], [X += rss(A)].
    Accumulating statements automatically get the read-modify-write read
    access restricted to skip the first reduction iteration (the paper's
    footnote 1), where the reduction variables are the enclosing loop
    variables absent from the left-hand side's subscripts.
    Explicit conditionals [if (e1 >= e2) ...] (affine sides) narrow every
    access of the statement or loop they guard.
    Subscripts accept both [X[i][j]] and [X[i,j]]; bounds and subscripts are
    affine in loop variables and parameters.

    @raise Error on malformed input, with a message that starts
    ["line N: "]: the line of the offending token for syntax errors, and the
    line of the statement or loop for validation errors (an unknown
    variable, a shadowed loop variable, an undeclared array, a subscript
    count that does not match the declaration, a duplicate parameter). *)

exception Error of string

val program : name:string -> string -> Riot_ir.Program.t
